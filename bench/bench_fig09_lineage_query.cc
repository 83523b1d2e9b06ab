// Figure 9: lineage (backward) query latency for varying zipf skew theta.
// SELECT * FROM Lb(o, zipf) for every output group o. Expected shape:
// Smoke-L (secondary index scan) ~1ms and up to five orders of magnitude
// faster than Lazy (full selection scan) for low-selectivity queries;
// Logic-Rid/Logic-Tup annotated-relation scans are worse than Lazy (wider
// relation, same cardinality); Phys-Bdb pays per-call cursor fetches on top
// of Smoke-L; crossover at high skew where some groups cover much of the
// input (secondary scan loses to sequential scan).
#include "harness.h"

#include "baselines/bdb_sim.h"
#include "engine/group_by.h"
#include "plan/executor.h"
#include "query/lazy.h"
#include "query/trace_builder.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

GroupBySpec MicrobenchSpec() {
  using E = ScalarExpr;
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(E::Col(zipf_table::kV), "sum_v")};
  return spec;
}

/// SELECT * FROM Lb(o): touch every traced row (simulates materialization
/// without allocating result tables in the timing loop).
double TouchRows(const Table& t, const RidVec& rids) {
  const double* v = t.column(zipf_table::kV).doubles().data();
  double acc = 0;
  for (rid_t r : rids) acc += v[r];
  return acc;
}

void Run(const bench::Options& opts) {
  const size_t n =
      opts.smoke ? 200000 : (opts.full ? 10000000 : 2000000);
  const uint64_t groups = opts.smoke ? 500 : 5000;
  bench::Banner("Figure 9",
                "Backward lineage query latency vs skew (mean over all "
                "groups)");

  std::vector<double> thetas = {0.0, 0.4, 0.8, 1.6};
  if (opts.smoke) thetas = {0.0, 0.8};  // CI quick mode
  for (double theta : thetas) {
    Table t = MakeZipfTable(n, groups, theta);
    GroupBySpec spec = MicrobenchSpec();

    // Capture once with Smoke-I (Smoke-L covers Smoke-I/D, Logic-Idx,
    // Phys-Mem — all produce the same indexes).
    auto res = GroupByExec(t, "zipf", spec, CaptureOptions::Inject());
    const RidIndex& bw = res.lineage.input(0).backward.index();
    const size_t num_groups = bw.size();

    // Smoke-L: all groups.
    volatile double sink = 0;
    WallTimer timer;
    for (size_t g = 0; g < num_groups; ++g) {
      sink += TouchRows(t, bw.list(g));
    }
    double smoke_mean = timer.ElapsedMs() / static_cast<double>(num_groups);
    bench::Row("fig09", "theta=" + bench::F(theta) +
                            ",mode=Smoke-L,mean_ms_per_query=" +
                            bench::F(smoke_mean) + "," +
                            bench::LineageBytesKv(res.lineage));

    // The paper's crossover lives in the tail: the largest group's backward
    // lineage can cover much of the input, where a secondary index scan
    // competes with a sequential table scan.
    size_t largest = 0;
    for (size_t g = 1; g < num_groups; ++g) {
      if (bw.list(g).size() > bw.list(largest).size()) largest = g;
    }
    timer.Start();
    sink += TouchRows(t, bw.list(largest));
    bench::Row("fig09", "theta=" + bench::F(theta) +
                            ",mode=Smoke-L,largest_group_rows=" +
                            std::to_string(bw.list(largest).size()) +
                            ",largest_group_ms=" +
                            bench::F(timer.ElapsedMs()));

    // Lazy: full selection scan per query (sampled; mean is representative
    // since every scan touches all n rows).
    const auto& zs = t.column(zipf_table::kZ).ints();
    const double* vs = t.column(zipf_table::kV).doubles().data();
    const auto& out_z = res.output.column(0).ints();
    const size_t lazy_samples = std::min<size_t>(num_groups, 20);
    timer.Start();
    for (size_t i = 0; i < lazy_samples; ++i) {
      int64_t key = out_z[i * (num_groups / lazy_samples)];
      double acc = 0;
      for (size_t r = 0; r < n; ++r) {
        if (zs[r] == key) acc += vs[r];
      }
      sink += acc;
    }
    double lazy_mean = timer.ElapsedMs() / static_cast<double>(lazy_samples);
    bench::Row("fig09", "theta=" + bench::F(theta) +
                            ",mode=Lazy,mean_ms_per_query=" +
                            bench::F(lazy_mean));

    // Logic-Rid / Logic-Tup: scan the annotated relation (wider than the
    // input, same cardinality). We model the scan cost over the annotated
    // relation produced by the logical rewrite.
    auto logic =
        GroupByExec(t, "zipf", spec, CaptureOptions::Mode(CaptureMode::kLogicRid));
    const auto& ann_z = logic.annotated.column(0).ints();
    const auto& ann_rid = logic.annotated.column("prov_rid").ints();
    timer.Start();
    for (size_t i = 0; i < lazy_samples; ++i) {
      int64_t key = out_z[i * (num_groups / lazy_samples)];
      double acc = 0;
      for (size_t r = 0; r < ann_z.size(); ++r) {
        if (ann_z[r] == key) acc += vs[ann_rid[r]];
      }
      sink += acc;
    }
    double logic_mean = timer.ElapsedMs() / static_cast<double>(lazy_samples);
    bench::Row("fig09", "theta=" + bench::F(theta) +
                            ",mode=Logic-Rid,mean_ms_per_query=" +
                            bench::F(logic_mean));

    // Phys-Bdb: cursor-based fetch per rid, then the same secondary scan.
    BdbWriter bdb(/*backward=*/true, /*forward=*/false);
    CaptureOptions bdb_opts = CaptureOptions::Mode(CaptureMode::kPhysBdb);
    bdb_opts.writer = &bdb;
    GroupByExec(t, "zipf", spec, bdb_opts);
    const size_t bdb_samples = std::min<size_t>(num_groups, 500);
    std::vector<rid_t> fetched;
    timer.Start();
    for (size_t i = 0; i < bdb_samples; ++i) {
      size_t g = i * (num_groups / bdb_samples);
      fetched.clear();
      bdb.FetchBackward(static_cast<rid_t>(g), &fetched);
      double acc = 0;
      for (rid_t r : fetched) acc += vs[r];
      sink += acc;
    }
    double bdb_mean = timer.ElapsedMs() / static_cast<double>(bdb_samples);
    bench::Row("fig09", "theta=" + bench::F(theta) +
                            ",mode=Phys-Bdb,mean_ms_per_query=" +
                            bench::F(bdb_mean));

    // Plan-compiled backward trace with a predicate over the traced rows
    // (SELECT * FROM Lb(o) WHERE v > 50). With the rewriter on, the
    // predicate is pushed into the Trace node (evaluated during the index
    // scan, dropped rows never materialized); off executes the literal
    // Trace → Select plan. Both rows land in the JSON log so CI diffs the
    // rewriter's effect on the lineage-query path. compile_ms_per_query is
    // TraceBuilder::Compile, kAuto costing included, which must not grow
    // with the traced group's size.
    TraceSource src;
    src.lineage = &res.lineage;
    src.output = &res.output;
    src.name = "zipf_view";
    const size_t plan_samples = std::min<size_t>(num_groups, 100);
    for (bool optimize : {true, false}) {
      auto compile = [&](rid_t g, LineageQuery* q) {
        TraceBuilder tb = TraceBuilder::Backward(src, "zipf", {g});
        tb.Filter(Predicate::Double(zipf_table::kV, CmpOp::kGt, 50.0));
        tb.Optimize(optimize);
        SMOKE_CHECK(tb.Compile(q).ok());
      };
      std::vector<LineageQuery> queries(plan_samples);
      timer.Start();
      for (size_t i = 0; i < plan_samples; ++i) {
        compile(static_cast<rid_t>(i * (num_groups / plan_samples)),
                &queries[i]);
      }
      const double compile_mean =
          timer.ElapsedMs() / static_cast<double>(plan_samples);
      // The samples stride over the groups, so at high skew their mean
      // hides the one huge group; time its compile on its own too.
      constexpr int kLargestCompiles = 20;
      timer.Start();
      for (int i = 0; i < kLargestCompiles; ++i) {
        LineageQuery q;
        compile(static_cast<rid_t>(largest), &q);
      }
      const double compile_largest = timer.ElapsedMs() / kLargestCompiles;
      timer.Start();
      for (const LineageQuery& q : queries) {
        PlanResult pr;
        SMOKE_CHECK(q.Execute(CaptureOptions::None(), &pr).ok());
        sink += static_cast<double>(pr.output.num_rows());
      }
      double plan_mean =
          timer.ElapsedMs() / static_cast<double>(plan_samples);
      bench::Row("fig09",
                 "theta=" + bench::F(theta) +
                     ",mode=Smoke-L-plan,optimizer=" +
                     (optimize ? "on" : "off") +
                     ",mean_ms_per_query=" + bench::F(plan_mean) +
                     ",compile_ms_per_query=" + bench::F(compile_mean) +
                     ",largest_group_compile_ms=" +
                     bench::F(compile_largest));
      if (!optimize) continue;

      // The same traces with their own lineage captured (Execute under
      // Inject), as a retained trace result keeps it. The traced rids are
      // duplicate-free, so the forward half is a 1:1 array over the
      // endpoint. lineage_bytes is the mean per result.
      double captured_ms = 0;
      size_t captured_bytes = 0;
      for (const LineageQuery& q : queries) {
        PlanResult pr;
        timer.Start();
        SMOKE_CHECK(q.Execute(CaptureOptions::Inject(), &pr).ok());
        captured_ms += timer.ElapsedMs();
        captured_bytes += pr.lineage.MemoryBytes();
      }
      bench::Row("fig09",
                 "theta=" + bench::F(theta) +
                     ",mode=Smoke-L-captured,mean_ms_per_query=" +
                     bench::F(captured_ms / static_cast<double>(plan_samples)) +
                     ",lineage_bytes=" +
                     std::to_string(captured_bytes / plan_samples));
    }
    (void)sink;
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
