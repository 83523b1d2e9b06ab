// Sharded-execution scaling: the crossfilter group-by view executed over
// 1/2/4/8 shards (or the single count given by --shards=N), plus the latency
// of a selective single-group backward trace on the retained sharded view:
// `trace_ms` through SmokeEngine::Backward, `trace_composed_ms` as a bare
// probe of the composed index (the engine's lookup overhead is the gap).
// A machine-readable summary line (prefix "JSON ") carries the whole curve:
//   JSON {"bench":"shard_scaling","series":"groupby_view","n":...,
//         "shards":[1,2,4,8],"execute_ms":[...],"trace_ms":[...],
//         "trace_composed_ms":[...]}
//
// Results and lineage are bit-identical sharded vs unsharded
// (tests/shard_property_test.cc); this bench measures only the wall-clock
// effect.
#include "harness.h"

#include <string>
#include <vector>

#include "core/smoke_engine.h"
#include "query/lineage_query.h"
#include "shard/shard_map.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

constexpr int kTraceReps = 100;  // traces per timed run (they are cheap)

void Run(const bench::Options& opts) {
  const size_t n = opts.full ? 5000000 : (opts.smoke ? 200000 : 1000000);
  const uint64_t groups = 1000;
  bench::Banner("Shard scaling",
                "Sharded group-by view + backward trace vs shards");

  std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  if (opts.shards > 0) {
    shard_counts = {static_cast<uint32_t>(opts.shards)};
  }

  SmokeEngine engine;
  SMOKE_CHECK(engine.CreateTable("zipf", MakeZipfTable(n, groups, 1.0)).ok());
  const Table* zipf = nullptr;
  SMOKE_CHECK(engine.GetTable("zipf", &zipf).ok());

  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(b.Scan(zipf, "zipf"), spec), &plan).ok());

  std::vector<double> execute_ms, trace_ms, composed_ms;
  for (uint32_t shards : shard_counts) {
    SMOKE_CHECK(
        engine.ShardTable("zipf", ShardingSpec::Hash(zipf_table::kZ, shards))
            .ok());
    CaptureOptions co = opts.WithThreads(CaptureOptions::Inject());

    int run = 0;
    RunStats exec = bench::Measure(opts, [&] {
      std::string name = "view_" + std::to_string(run++);
      SMOKE_CHECK(engine.ExecutePlan(name, plan, co, nullptr).ok());
      SMOKE_CHECK(engine.DropResult(name).ok());
    });
    execute_ms.push_back(exec.mean_ms);

    // Retain one view and trace a selective single-group seed: through the
    // engine, then as a bare probe of the same composed index.
    SMOKE_CHECK(engine.ExecutePlan("view", plan, co, nullptr).ok());
    std::vector<rid_t> rids;
    SMOKE_CHECK(engine.Backward("view", "zipf", {0}, &rids).ok());
    const size_t traced = rids.size();
    RunStats trace = bench::Measure(opts, [&] {
      for (int i = 0; i < kTraceReps; ++i) {
        SMOKE_CHECK(engine.Backward("view", "zipf", {0}, &rids).ok());
      }
    });
    const PlanResult* pr = nullptr;
    SMOKE_CHECK(engine.GetPlanResult("view", &pr).ok());
    RunStats comp = bench::Measure(opts, [&] {
      for (int i = 0; i < kTraceReps; ++i) {
        SMOKE_CHECK(
            BackwardRidsChecked(pr->lineage, "zipf", {0}, true, &rids).ok());
      }
    });
    SMOKE_CHECK(engine.DropResult("view").ok());
    trace_ms.push_back(trace.mean_ms);
    composed_ms.push_back(comp.mean_ms);

    bench::Row("shard_scaling",
               "series=groupby_view,shards=" + std::to_string(shards) +
                   ",threads=" + std::to_string(opts.threads) +
                   ",execute_ms=" + bench::F(exec.mean_ms) + ",mrows_s=" +
                   bench::F(static_cast<double>(n) / exec.mean_ms / 1000.0) +
                   ",trace_rids=" + std::to_string(traced) +
                   ",trace_ms=" + bench::F(trace.mean_ms) +
                   ",trace_composed_ms=" + bench::F(comp.mean_ms));
  }
  SMOKE_CHECK(engine.UnshardTable("zipf").ok());

  std::string sh = "[", ex = "[", tr = "[", cm = "[";
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    const char* sep = i == 0 ? "" : ",";
    sh += sep + std::to_string(shard_counts[i]);
    ex += sep + bench::F(execute_ms[i]);
    tr += sep + bench::F(trace_ms[i]);
    cm += sep + bench::F(composed_ms[i]);
  }
  std::printf(
      "JSON {\"bench\":\"shard_scaling\",\"series\":\"groupby_view\","
      "\"n\":%zu,\"groups\":%llu,\"shards\":%s],\"execute_ms\":%s],"
      "\"trace_ms\":%s],\"trace_composed_ms\":%s]}\n",
      n, static_cast<unsigned long long>(groups), sh.c_str(), ex.c_str(),
      tr.c_str(), cm.c_str());
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::bench::Options opts = smoke::bench::Options::Parse(argc, argv);
  smoke::Run(opts);
  return 0;
}
