// perfbench: runs one workload of the benchmark and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Workloads: tpch_capture, trace_drilldown, crossfilter_serve. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, taken from spans around every call into
// the engine, and writes the spans as Chrome trace-event JSON to
// --trace-out. The last line of standard output is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (!std::strcmp(flag, "--workload")) {
      cfg.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      cfg.seconds = std::atof(value);
    } else if (!std::strcmp(flag, "--trace")) {
      cfg.trace = std::atoi(value) != 0;
    } else if (!std::strcmp(flag, "--trace-out")) {
      cfg.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }
  if (cfg.workload.empty() || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Report report;
  smoke::Status st = perfbench::RunWorkload(cfg, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", cfg.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  report.Print();
  return 0;
}
