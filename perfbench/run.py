#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the engine and the benchmark from source first (Release, into
.bench_build/ at the root of the checkout, or $CARGO_TARGET_DIR when set;
later runs rebuild only what changed). Each workload runs in a process of
its own, so its set-up time and peak memory are its own. Build output goes
to standard error; the last line of standard output is the JSON result
object. With --trace 1 the Chrome trace-event JSON of the run is written
to <build dir>/traces/<workload>_<seed>.json.

The result must hold exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1), each in its unit;
otherwise the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tpch_capture", "trace_drilldown", "crossfilter_serve")


def run_timeout_s(seconds):
    """Set-ups, warm-up and checks take well under two minutes; the timed
    window (and, for the open-loop writer, its last period) comes on top."""
    return 120 + 2 * seconds


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for the mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        manifest = json.load(f)
    section = manifest["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}_{args.seed}.json")]
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"{args.workload} did not finish in {timeout:g} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"{args.workload} exited with code {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        print("the last output line is not a JSON result", file=sys.stderr)
        return 1
    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot read the metrics of BENCHMARK.json: {e}",
              file=sys.stderr)
        return 1
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        sys.stderr.write(run.stdout)
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        print(f"metrics differ from BENCHMARK.json: missing {missing}, "
              f"not listed {extra}, wrong unit {wrong}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
