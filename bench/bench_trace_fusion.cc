// Trace-hop fusion: fused vs literal drill-down chains (linked brushing:
// backward out of one retained view, forward into another — Lf ∘ Lb).
// The literal plan materializes the intermediate
// endpoint (every traced base row, full width) before the next hop probes;
// the fused plan (optimizer trace-hop fusion) collapses the chain into one
// Trace node that only materializes the final hop's endpoint. The wider the
// base relation and the larger the traced groups, the more the skipped
// intermediate copy dominates — the fused series must hold a healthy
// speedup over --no-optimize (the release canary asserts >= 1.5x).
//
// Second series: predicate push-down into the trace (SELECT * FROM Lb(o)
// WHERE pred). Optimized plans evaluate the predicate during the index
// scan, before materialization; literal plans copy every traced row and
// select afterwards.
#include "harness.h"

#include <algorithm>
#include <random>

#include "engine/group_by.h"
#include "plan/executor.h"
#include "query/trace_builder.h"

namespace smoke {
namespace {

constexpr int kValueCols = 6;

/// events(k1, k2, v0..v5): two int64 grouping keys over small domains plus
/// six payload columns — wide enough that materializing intermediate trace
/// endpoints is the dominant cost the fusion rule removes.
Table MakeEvents(size_t n, int64_t g1, int64_t g2, uint64_t seed) {
  Schema s;
  s.AddField("k1", DataType::kInt64);
  s.AddField("k2", DataType::kInt64);
  for (int c = 0; c < kValueCols; ++c) {
    s.AddField("v" + std::to_string(c), DataType::kFloat64);
  }
  Table t(s);
  std::mt19937_64 rng(seed);
  auto v = [&] { return static_cast<double>(rng() % 10000) / 100.0; };
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({static_cast<int64_t>(rng() % static_cast<uint64_t>(g1)),
                 static_cast<int64_t>(rng() % static_cast<uint64_t>(g2)),
                 v(), v(), v(), v(), v(), v()});
  }
  return t;
}

GroupBySpec SpecOver(int key) {
  GroupBySpec spec;
  spec.keys = {key};
  spec.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(2), "sv")};
  return spec;
}

TraceSource SourceOf(const GroupByResult& r, const char* name) {
  TraceSource s;
  s.lineage = &r.lineage;
  s.output = &r.output;
  s.name = name;
  return s;
}

void Run(const bench::Options& opts) {
  const size_t n = opts.smoke ? 100000 : (opts.full ? 5000000 : 1000000);
  const int64_t g1 = opts.smoke ? 50 : 200;  // ~n/g1 rows per traced group
  const int64_t g2 = 25;
  bench::Banner("Trace fusion",
                "Fused vs literal drill-down chains (Lf ∘ Lb across two "
                "retained views) and predicate push-down into traces");

  Table events = MakeEvents(n, g1, g2, /*seed=*/42);
  auto view1 = GroupByExec(events, "events", SpecOver(0),
                           CaptureOptions::Inject());
  auto view2 = GroupByExec(events, "events", SpecOver(1),
                           CaptureOptions::Inject());

  const size_t samples =
      std::min<size_t>(view1.output.num_rows(), opts.smoke ? 10 : 50);

  // --- Series 1: two-hop drill-down chain, fused vs literal. -------------
  for (bool optimize : {true, false}) {
    std::vector<LineageQuery> queries(samples);
    for (size_t i = 0; i < samples; ++i) {
      TraceBuilder b = TraceBuilder::Backward(SourceOf(view1, "view1"),
                                              "events",
                                              {static_cast<rid_t>(i)});
      b.ThenForward(SourceOf(view2, "view2"));
      b.Optimize(optimize);
      SMOKE_CHECK(b.Compile(&queries[i]).ok());
    }
    RunStats stats = bench::Measure(opts, [&] {
      for (const LineageQuery& q : queries) {
        PlanResult pr;
        SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
      }
    });
    bench::Row("trace_fusion",
               std::string("series=chain,optimizer=") +
                   (optimize ? "on" : "off") + ",queries=" +
                   std::to_string(samples) + ",mean_ms_per_query=" +
                   bench::F(stats.mean_ms / static_cast<double>(samples)));
  }

  // --- Series 2: backward trace with a pushed-down predicate. ------------
  for (bool optimize : {true, false}) {
    std::vector<LineageQuery> queries(samples);
    for (size_t i = 0; i < samples; ++i) {
      TraceBuilder b = TraceBuilder::Backward(SourceOf(view1, "view1"),
                                              "events",
                                              {static_cast<rid_t>(i)});
      b.Filter(Predicate::Double(2, CmpOp::kGt, 95.0));  // ~5% pass
      b.Optimize(optimize);
      SMOKE_CHECK(b.Compile(&queries[i]).ok());
    }
    RunStats stats = bench::Measure(opts, [&] {
      for (const LineageQuery& q : queries) {
        PlanResult pr;
        SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
      }
    });
    bench::Row("trace_fusion",
               std::string("series=filter,optimizer=") +
                   (optimize ? "on" : "off") + ",queries=" +
                   std::to_string(samples) + ",mean_ms_per_query=" +
                   bench::F(stats.mean_ms / static_cast<double>(samples)));
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
