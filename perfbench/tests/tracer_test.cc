// Self-test of the benchmark's tracer and of the determinism its counts
// rely on:
//  - spans nest: every child lies inside its parent, on one thread, with
//    its parent's operation id;
//  - self times are non-negative and add up to the root's duration;
//  - a traced workload run produces spans that satisfy the same;
//  - lineage_bytes_per_row repeats exactly across two runs of a workload;
//  - every workload reports the same metric names, in each mode.
//
//   ./perfbench_tracer_test      (exit 0 = pass)
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace {

using perfbench::Span;
using perfbench::Tracer;

int failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                   \
    }                                                               \
  } while (0)

void Busy(int us) {
  const auto until = perfbench::Clock::now() + std::chrono::microseconds(us);
  while (perfbench::Clock::now() < until) {
  }
}

/// Checks nesting and self times over every span recorded so far.
void CheckSpans(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  std::vector<int64_t> child_sum(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    EXPECT(s.end_ns >= s.start_ns);
    EXPECT(self[i] >= 0);
    if (s.parent < 0) continue;
    EXPECT(static_cast<size_t>(s.parent) < i);
    const Span& p = spans[static_cast<size_t>(s.parent)];
    EXPECT(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
    EXPECT(p.tid == s.tid);
    EXPECT(p.op == s.op);
    child_sum[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  // Children of one thread run one after another, so a span's self time
  // is its duration minus its children's summed durations.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT(self[i] == (spans[i].end_ns - spans[i].start_ns) - child_sum[i]);
  }
}

void TestNesting() {
  Tracer::Get().Clear();
  auto work = [](uint64_t op) {
    Tracer::SetThreadActive(true);
    for (int round = 0; round < 20; ++round) {
      Tracer::Scope root("root", op * 100 + static_cast<uint64_t>(round));
      Busy(50);
      {
        Tracer::Scope a("layer_a.call");
        Busy(30);
        Tracer::Scope b("layer_b.call");
        Busy(20);
      }
      Tracer::Scope c("layer_c.call");
      Busy(10);
    }
    Tracer::SetThreadActive(false);
    Tracer::Scope ignored("untraced.call");  // must not be recorded
  };
  std::thread t1(work, 1), t2(work, 2);
  t1.join();
  t2.join();
  const std::vector<Span> spans = Tracer::Get().Spans();
  EXPECT(spans.size() == 2u * 20u * 4u);
  CheckSpans(spans);
  const auto per_op = perfbench::SelfMsPerOp(spans);
  EXPECT(per_op.count("root.root") == 1);
  EXPECT(per_op.count("root.layer_a") == 1);
  EXPECT(per_op.count("root.layer_b") == 1);
  EXPECT(per_op.count("untraced.untraced") == 0);
  for (const auto& [key, ms] : per_op) EXPECT(ms >= 0);
}

/// A workload as the benchmark runs it, with a short timed window.
perfbench::RunConfig ShortRun(const char* workload, bool trace) {
  perfbench::RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 11;
  cfg.seconds = 0.5;
  cfg.trace = trace;
  return cfg;
}

/// No metric is 0 or a -1 "not recorded" marker: every workload exercises
/// every layer its metrics name.
void ExpectAllPositive(const perfbench::Report& report) {
  for (const std::string& name : report.MetricNames()) {
    double value = 0;
    if (!report.Get(name, &value) || !(value > 0)) {
      std::fprintf(stderr, "metric %s is %g, expected > 0\n", name.c_str(),
                   value);
      ++failures;
    }
  }
}

const char* const kWorkloads[] = {"tpch_capture", "trace_drilldown",
                                   "crossfilter_serve"};

void TestWorkloadSpans() {
  std::vector<std::string> names;
  for (const char* w : kWorkloads) {
    Tracer::Get().Clear();
    perfbench::Report report;
    smoke::Status st = perfbench::RunWorkload(ShortRun(w, true), &report);
    EXPECT(st.ok());
    EXPECT(report.failed() == 0);
    const std::vector<Span> spans = Tracer::Get().Spans();
    EXPECT(!spans.empty());
    CheckSpans(spans);
    double overhead = 0;
    EXPECT(report.Get("trace.overhead_x", &overhead) && overhead > 0);
    // Every workload reports the same per-layer metrics, each measured.
    if (names.empty()) names = report.MetricNames();
    EXPECT(!names.empty() && report.MetricNames() == names);
    ExpectAllPositive(report);
  }
}

void TestBytesPerRowRepeats() {
  std::vector<std::string> names;
  for (const char* w : kWorkloads) {
    double first = -1, second = -2;
    perfbench::Report a, b;
    EXPECT(perfbench::RunWorkload(ShortRun(w, false), &a).ok());
    EXPECT(perfbench::RunWorkload(ShortRun(w, false), &b).ok());
    EXPECT(a.Get("lineage_bytes_per_row", &first));
    EXPECT(b.Get("lineage_bytes_per_row", &second));
    EXPECT(first > 0);
    EXPECT(first == second);
    EXPECT(a.failed() == 0 && b.failed() == 0);
    // Every workload reports the same end-to-end metrics, each measured.
    if (names.empty()) names = a.MetricNames();
    EXPECT(!names.empty() && a.MetricNames() == names);
    ExpectAllPositive(a);
  }
}

}  // namespace

int main() {
  TestNesting();
  TestWorkloadSpans();
  TestBytesPerRowRepeats();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench tracer self-test passed\n");
  return 0;
}
