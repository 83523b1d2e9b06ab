#!/usr/bin/env python3
"""Prints parent against change for every end-to-end metric of a workload.

Reads the JSON lines that `perfbench/run.py` prints last, one file per run,
pairs them by seed, and prints for each end-to-end metric of
BENCHMARK.json: the median of each side, the relative change, the metric's
regression bound, how many pairs moved in the metric's better direction,
and the parent's interquartile range (the noise a claimed gain must clear).

    python3 tools/bench_compare.py --workload crossfilter_serve \\
        --parent runs/parent_*.log --change runs/change_*.log

A run file may hold the whole output of run.py; the last line that parses
as a JSON object with "metrics" is used. The seed is read from the
`seed=` note of the run, or else from the file name (`..._<seed>.log`).
With --json the medians are printed as a JSON object instead, in the form
of the committed BENCH_*.json baselines: it also records the parent commit
(--parent-commit), the core count, and which side of each pair ran first,
read from the run files' modification times; --seconds records the run
length the runs were made with.
"""

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(path):
    text = Path(path).read_text()
    result = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "metrics" in obj:
            result = obj
    if result is None:
        sys.exit(f"{path}: no perfbench result line")
    seed = re.search(r"\bseed=(\d+)", text)
    if seed is None:
        seed = re.search(r"_(\d+)\.\w+$", str(path))
    notes = dict(re.findall(r"\b(\w+_ms)=([0-9.]+)", text))
    return (int(seed.group(1)) if seed else None), result, notes, \
        os.path.getmtime(path)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.exit(f"unknown workload {args.workload}")
    parent = {}
    change = {}
    for side, files in ((parent, args.parent), (change, args.change)):
        for i, f in enumerate(files):
            seed, result, notes, mtime = load_run(f)
            side[seed if seed is not None else i] = (result, notes, mtime)
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        sys.exit("no seed has both a parent and a change run")

    rows = []
    for m in bench["end_to_end"]:
        name = m["name"]
        p = [parent[s][0]["metrics"][name]["value"] for s in seeds]
        c = [change[s][0]["metrics"][name]["value"] for s in seeds]
        lower = m["better"] == "lower"
        better = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        rows.append({"name": name, "unit": m["unit"], "better": m["better"],
                     "bound": m["bound"], "parent": pm, "change": cm,
                     "rel": (cm - pm) / pm if pm else 0.0,
                     "better_pairs": better, "parent_iqr": q3 - q1})
    notes = {}
    for key in sorted(set().union(*(n for _, n, _ in parent.values()))):
        p = [float(parent[s][1][key]) for s in seeds if key in parent[s][1]]
        c = [float(change[s][1][key]) for s in seeds if key in change[s][1]]
        if p and c:
            notes[key] = {"parent": statistics.median(p),
                          "change": statistics.median(c)}

    if args.json:
        # A run file is written until its run ends: the older one ran first.
        first = {str(s): "parent" if parent[s][2] < change[s][2] else "change"
                 for s in seeds}
        print(json.dumps({"workload": args.workload,
                          "parent_commit": args.parent_commit,
                          "cores": os.cpu_count(), "seconds": args.seconds,
                          "pairs": len(seeds),
                          "seeds": seeds, "first": first,
                          "end_to_end": rows, "notes": notes}, indent=2))
        return
    print(f"{args.workload}: {len(seeds)} pairs, seeds {seeds}")
    print(f"{'metric':<24}{'parent':>12}{'change':>12}{'rel':>9}"
          f"{'bound':>8}{'better':>8}{'parent IQR':>12}")
    for r in rows:
        flag = ""
        worse = r["rel"] > 0 if r["better"] == "lower" else r["rel"] < 0
        if worse and abs(r["rel"]) > r["bound"]:
            flag = "  OVER BOUND"
        print(f"{r['name']:<24}{r['parent']:>12.4g}{r['change']:>12.4g}"
              f"{r['rel']:>+9.1%}{r['bound']:>8.2f}"
              f"{r['better_pairs']:>5}/{len(seeds):<2}"
              f"{r['parent_iqr']:>12.4g}{flag}")
    for key, v in notes.items():
        print(f"# {key}: parent {v['parent']:.4g}, change {v['change']:.4g}")


if __name__ == "__main__":
    main()
