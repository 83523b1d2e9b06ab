// Figure 11 (+ the Section 6.4 "NoOptimization" comparison): lineage
// consuming query latency for the TPC-H Q1c drill-down under Lazy, plain
// lineage indexes (No Agg Pushdown), and group-by push-down (~0ms — just
// fetches the materialized aggregates). Paper: Smoke-I beats Lazy by 72.9x
// on average; push-down is ~0ms.
#include "harness.h"

#include "capture/cube_index.h"
#include "engine/spja.h"
#include "query/trace_builder.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

/// Times Execute (no capture) of `b` compiled once.
RunStats TimeQuery(const bench::Options& opts, const TraceBuilder& b) {
  LineageQuery q;
  SMOKE_CHECK(b.Compile(&q).ok());
  return bench::Measure(opts, [&] {
    PlanResult pr;
    SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
  });
}

void Run(const bench::Options& opts) {
  const double sf =
      opts.scale > 0 ? opts.scale : (opts.smoke ? 0.01 : (opts.full ? 1.0 : 0.1));
  bench::Banner("Figure 11",
                "Aggregation push-down: Q1c consuming-query latency (Lazy vs "
                "indexed vs pushdown)");
  std::printf("scale factor %.2f\n", sf);
  tpch::Database db = tpch::Generate(sf);
  SPJAQuery q1 = tpch::MakeQ1(db);
  auto base = SPJAExec(q1, CaptureOptions::Inject());
  const TraceSource src = TraceSource::FromPlan(base, "q1");

  // Section 6.4 NoOptimization: Q1a per Q1 output group, Lazy vs Smoke-I.
  ConsumingSpec q1a = tpch::MakeQ1a(db);
  for (rid_t oid = 0; oid < base.output.num_rows(); ++oid) {
    const size_t group_rows =
        base.lineage.input(0).backward.index().list(oid).size();
    auto drill = [&](TraceStrategy strategy) {
      return TraceBuilder::Backward(src, "lineitem", {oid})
          .Consuming(q1a)
          .Strategy(strategy);
    };
    RunStats lazy = TimeQuery(opts, drill(TraceStrategy::kLazy));
    RunStats indexed = TimeQuery(opts, drill(TraceStrategy::kIndexed));
    const double selectivity = static_cast<double>(group_rows) /
                               static_cast<double>(db.lineitem.num_rows());
    bench::Row("fig11", "q1a,group=" + std::to_string(oid) +
                            ",selectivity=" + bench::F(selectivity) +
                            ",lazy_ms=" + bench::F(lazy.mean_ms) +
                            ",smoke_ms=" + bench::F(indexed.mean_ms));
  }

  // Q1c: for each Q1 group and each Q1b parameterization, evaluate Q1c over
  // Q1b's backward lineage. Pushdown materializes the l_tax cube during the
  // Q1b pass, so Q1c becomes a lookup.
  const std::vector<std::pair<std::string, std::string>> params = {
      {"MAIL", "NONE"}, {"SHIP", "COLLECT COD"}};
  for (rid_t oid = 0; oid < base.output.num_rows(); ++oid) {
    for (const auto& [mode, instr] : params) {
      ConsumingSpec q1b = tpch::MakeQ1b(db, mode, instr);
      PlanResult q1b_res;
      SMOKE_CHECK(TraceBuilder::Backward(src, "lineitem", {oid})
                      .Consuming(q1b)
                      .Strategy(TraceStrategy::kIndexed)
                      .Execute(CaptureOptions::Inject(), &q1b_res)
                      .ok());
      const LineageIndex& q1b_bw = q1b_res.lineage.input(0).backward;
      const TraceSource q1b_src = TraceSource::FromPlan(q1b_res, "q1b");
      ConsumingSpec q1c = tpch::MakeQ1c(db, mode, instr);

      // Group-by push-down: the l_tax cube materialized during the Q1b
      // pass (one cube group per Q1b output group).
      CubeIndex cube;
      cube.Init(db.lineitem, {tpch::kLTax}, q1b.aggs);
      for (size_t ob = 0; ob < q1b_res.output.num_rows(); ++ob) {
        cube.AddGroup();
        q1b_bw.ForEachRelated(static_cast<rid_t>(ob), [&](rid_t r) {
          cube.Update(static_cast<uint32_t>(ob), r);
        });
      }

      // Lazy: a full scan with the Q1 group's and Q1b's predicates.
      RunStats lazy = TimeQuery(opts, TraceBuilder::Backward(src, "lineitem",
                                                             {oid})
                                          .Consuming(q1c)
                                          .Strategy(TraceStrategy::kLazy));
      for (size_t ob = 0; ob < q1b_res.output.num_rows();
           ob += std::max<size_t>(1, q1b_res.output.num_rows() / 4)) {
        std::vector<rid_t> sub;
        q1b_bw.TraceInto(static_cast<rid_t>(ob), &sub);
        RunStats indexed = TimeQuery(
            opts, TraceBuilder::Backward(q1b_src, "lineitem",
                                         {static_cast<rid_t>(ob)})
                      .Consuming(q1c)
                      .Strategy(TraceStrategy::kIndexed));
        RunStats pushdown = bench::Measure(opts, [&] {
          cube.GroupTable(static_cast<uint32_t>(ob));  // just a lookup
        });
        bench::Row(
            "fig11",
            "q1c,group=" + std::to_string(oid) + ",mode=" + mode +
                ",q1b_group=" + std::to_string(ob) + ",selectivity=" +
                bench::F(static_cast<double>(sub.size()) /
                         static_cast<double>(db.lineitem.num_rows())) +
                ",lazy_ms=" + bench::F(lazy.mean_ms) + ",no_pushdown_ms=" +
                bench::F(indexed.mean_ms) + ",pushdown_ms=" +
                bench::F(pushdown.mean_ms));
      }
    }
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
