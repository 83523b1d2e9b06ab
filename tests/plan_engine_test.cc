// SmokeEngine facade over composable plans: ExecutePlan retention, lineage
// queries, linked brushing across plan/SPJA retained queries, consuming
// queries over plan lineage, the table replace/drop lifetime guard, and
// parity of ExecuteQuery with the single-SpjaBlock plan it retains.
#include "core/smoke_engine.h"

#include <set>

#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

Table MakeSales() {
  Schema s;
  s.AddField("region_id", DataType::kInt64);
  s.AddField("amount", DataType::kFloat64);
  s.AddField("day", DataType::kInt64);
  Table t(s);
  const int64_t regions[] = {0, 1, 2, 0, 1, 2, 3, 0, 1, 0, 3, 2};
  for (size_t i = 0; i < 12; ++i) {
    t.AppendRow({regions[i], static_cast<double>(i + 1),
                 static_cast<int64_t>(20240101 + (i % 3))});
  }
  return t;
}

GroupBySpec PerRegionAgg() {
  GroupBySpec spec;
  spec.keys = {0};
  spec.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(1), "sum")};
  return spec;
}

class PlanEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.CreateTable("sales", MakeSales()).ok());
    ASSERT_TRUE(engine_.GetTable("sales", &sales_).ok());
  }

  LogicalPlan RegionPlan() {
    PlanBuilder b;
    int gb = b.GroupBy(b.Scan(sales_, "sales"), PerRegionAgg());
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(gb, &plan).ok());
    return plan;
  }

  SmokeEngine engine_;
  const Table* sales_ = nullptr;
};

TEST_F(PlanEngineTest, ExecutePlanRetainsResultAndLineage) {
  ASSERT_TRUE(engine_.ExecutePlan("by_region", RegionPlan()).ok());

  const Table* out = nullptr;
  ASSERT_TRUE(engine_.GetResult("by_region", &out).ok());
  EXPECT_EQ(out->num_rows(), 4u);

  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine_.GetPlanResult("by_region", &pr).ok());
  EXPECT_EQ(pr->lineage.num_inputs(), 1u);

  // Backward from the region-0 output: rids 0, 3, 7, 9.
  rid_t region0_out = kInvalidRid;
  for (rid_t g = 0; g < out->num_rows(); ++g) {
    if (out->column(0).ints()[g] == 0) region0_out = g;
  }
  ASSERT_NE(region0_out, kInvalidRid);
  std::vector<rid_t> rids;
  ASSERT_TRUE(engine_.Backward("by_region", "sales", {region0_out}, &rids).ok());
  EXPECT_EQ(testing::Sorted(rids), (std::vector<rid_t>{0, 3, 7, 9}));

  // Forward from rid 1 (region 1) reaches exactly the region-1 output.
  TraceResult outs;
  ASSERT_TRUE(engine_.TraceForward("by_region", "sales", {1}, &outs).ok());
  ASSERT_EQ(outs.rids.size(), 1u);
  EXPECT_EQ(out->column(0).ints()[outs.rids[0]], 1);

  // TraceBackward materializes the traced base rows.
  TraceResult rows;
  ASSERT_TRUE(
      engine_.TraceBackward("by_region", "sales", {region0_out}, &rows).ok());
  EXPECT_EQ(rows.rows.num_rows(), 4u);

  // Duplicate names are refused across namespaces.
  EXPECT_FALSE(engine_.ExecutePlan("by_region", RegionPlan()).ok());
  SPJAQuery q;
  q.fact = sales_;
  q.fact_name = "sales";
  q.group_by = {ColRef::Fact(0)};
  q.aggs = {AggSpec::Count("cnt")};
  EXPECT_FALSE(engine_.ExecuteQuery("by_region", q).ok());
}

TEST_F(PlanEngineTest, TraceAcrossPlanAndSpjaQueries) {
  // View 1: a plan (HAVING-style rollup); view 2: a legacy SPJA query over
  // the same base relation — linked brushing must work across the mix.
  PlanBuilder b;
  int gb = b.GroupBy(b.Scan(sales_, "sales"), PerRegionAgg());
  int root = b.Select(gb, {Predicate::Int(1, CmpOp::kGe, 3)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());
  ASSERT_TRUE(engine_.ExecutePlan("big_regions", plan).ok());

  SPJAQuery by_day;
  by_day.fact = sales_;
  by_day.fact_name = "sales";
  by_day.group_by = {ColRef::Fact(2)};
  by_day.aggs = {AggSpec::Count("cnt")};
  ASSERT_TRUE(engine_.ExecuteQuery("by_day", by_day).ok());

  const Table* big = nullptr;
  ASSERT_TRUE(engine_.GetResult("big_regions", &big).ok());
  ASSERT_GT(big->num_rows(), 0u);

  std::vector<rid_t> linked;
  ASSERT_TRUE(testing::TraceAcross(engine_, "big_regions", {0}, "sales",
                                   "by_day", &linked)
                  .ok());
  // Region 0 has sales on days spanning the whole cycle; brute-force check.
  std::vector<rid_t> base;
  ASSERT_TRUE(engine_.Backward("big_regions", "sales", {0}, &base).ok());
  std::set<int64_t> days;
  for (rid_t r : base) days.insert(sales_->column(2).ints()[r]);
  const Table* day_out = nullptr;
  ASSERT_TRUE(engine_.GetResult("by_day", &day_out).ok());
  std::set<rid_t> expect;
  for (rid_t g = 0; g < day_out->num_rows(); ++g) {
    if (days.count(day_out->column(0).ints()[g])) expect.insert(g);
  }
  EXPECT_EQ(std::set<rid_t>(linked.begin(), linked.end()), expect);
}

TEST_F(PlanEngineTest, ConsumingQueryOverPlanLineage) {
  ASSERT_TRUE(engine_.ExecutePlan("by_region", RegionPlan()).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(engine_.GetResult("by_region", &out).ok());
  rid_t region0_out = kInvalidRid;
  for (rid_t g = 0; g < out->num_rows(); ++g) {
    if (out->column(0).ints()[g] == 0) region0_out = g;
  }
  ASSERT_NE(region0_out, kInvalidRid);

  // Drill down into region 0's lineage, regrouping by day — through the
  // unified consumption API (the ExecuteConsuming shims are retired).
  ConsumingSpec spec;
  spec.group_by = {GroupExpr::Raw(2, "day")};
  spec.aggs = {AggSpec::Count("cnt")};
  TraceSource src;
  ASSERT_TRUE(engine_.MakeTraceSource("by_region", &src).ok());
  TraceBuilder drill_query =
      TraceBuilder::Backward(std::move(src), "sales", {region0_out});
  drill_query.Consuming(spec);
  ASSERT_TRUE(engine_.ExecuteTraceQuery("region0_by_day", drill_query).ok());
  const Table* drill = nullptr;
  ASSERT_TRUE(engine_.GetResult("region0_by_day", &drill).ok());
  // Region-0 rids {0,3,7,9} fall on days 20240101 (0,3,9) and 20240102 (7).
  EXPECT_EQ(drill->num_rows(), 2u);
  int64_t total = 0;
  for (rid_t g = 0; g < drill->num_rows(); ++g) {
    total += drill->column("cnt").ints()[g];
  }
  EXPECT_EQ(total, 4);
}

TEST_F(PlanEngineTest, ReplaceAndDropGuardedByRetainedQueries) {
  // Regression for the dangling-pointer hazard: retained lineage stores
  // rids into the registered table, so re-registering or dropping it while
  // referenced must be refused.
  EXPECT_FALSE(engine_.CreateTable("sales", MakeSales()).ok());  // duplicate

  ASSERT_TRUE(engine_.ExecutePlan("by_region", RegionPlan()).ok());
  EXPECT_FALSE(engine_.ReplaceTable("sales", MakeSales()).ok());
  EXPECT_FALSE(engine_.DropTable("sales").ok());

  // Consuming results borrow the base table too.
  const Table* out = nullptr;
  ASSERT_TRUE(engine_.GetResult("by_region", &out).ok());
  ConsumingSpec spec;
  spec.group_by = {GroupExpr::Raw(2, "day")};
  spec.aggs = {AggSpec::Count("cnt")};
  TraceSource src;
  ASSERT_TRUE(engine_.MakeTraceSource("by_region", &src).ok());
  TraceBuilder drill_query = TraceBuilder::Backward(std::move(src), "sales", {0});
  drill_query.Consuming(spec);
  ASSERT_TRUE(engine_.ExecuteTraceQuery("drill", drill_query).ok());
  ASSERT_TRUE(engine_.DropResult("by_region").ok());
  EXPECT_FALSE(engine_.ReplaceTable("sales", MakeSales()).ok());

  // Once nothing references the table, replace and drop succeed.
  ASSERT_TRUE(engine_.DropResult("drill").ok());
  EXPECT_TRUE(engine_.ReplaceTable("sales", MakeSales()).ok());
  EXPECT_TRUE(engine_.DropTable("sales").ok());
  EXPECT_FALSE(engine_.DropTable("sales").ok());  // already gone
}

TEST_F(PlanEngineTest, WorkloadPushdownRejectedForPlans) {
  Workload w;
  w.pushdown.skip_cols = {2};
  EXPECT_FALSE(engine_.ExecutePlan("p", RegionPlan(), CaptureMode::kInject, &w)
                   .ok());
}

TEST_F(PlanEngineTest, WorkloadPruningOnPlans) {
  Workload w;
  w.needs_forward = false;
  ASSERT_TRUE(engine_.ExecutePlan("bw_only", RegionPlan(),
                                  CaptureMode::kInject, &w)
                  .ok());
  std::vector<rid_t> rids;
  EXPECT_TRUE(engine_.Backward("bw_only", "sales", {0}, &rids).ok());
  TraceResult outs;
  EXPECT_FALSE(engine_.TraceForward("bw_only", "sales", {0}, &outs).ok());
}

// ---- ExecuteQuery == ExecutePlan(SpjaBlock) ----

size_t StatBytes(const SmokeEngine& engine, const std::string& name) {
  for (const auto& q : engine.LineageMemoryStats().queries) {
    if (q.name == name) return q.bytes;
  }
  return 0;
}

std::vector<std::string> OrderedRows(const Table& t) {
  std::vector<std::string> rows;
  for (rid_t r = 0; r < t.num_rows(); ++r) rows.push_back(testing::RowKey(t, r));
  return rows;
}

TEST(SpjaPlanParityTest, ExecuteQueryMatchesSingleBlockPlan) {
  tpch::Database db = tpch::Generate(0.002);
  SPJAPushdown skip;
  skip.skip_cols = {tpch::kLShipmode};
  SPJAPushdown cube;
  cube.cube_cols = {tpch::kLTax};
  cube.cube_aggs = {AggSpec::Count("cnt"),
                    AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = cube.cube_aggs;

  for (const SPJAPushdown& push : {SPJAPushdown(), skip, cube}) {
    for (LineageCodec codec : {LineageCodec::kRaw, LineageCodec::kAdaptive}) {
      const std::string what =
          std::string(push.skip_cols.empty() ? "" : "skip ") +
          (push.cube_cols.empty() ? "" : "cube ") + LineageCodecName(codec);
      SmokeEngine engine;
      ASSERT_TRUE(engine.CreateTable("lineitem", db.lineitem).ok());
      const Table* t = nullptr;
      ASSERT_TRUE(engine.GetTable("lineitem", &t).ok());
      SPJAQuery q1 = tpch::MakeQ1(db);
      q1.fact = t;
      CaptureOptions opts = CaptureOptions::Inject();
      opts.lineage_codec = codec;
      Workload workload;
      workload.pushdown = push;
      ASSERT_TRUE(engine.ExecuteQuery("query", q1, opts, &workload).ok());
      PlanBuilder b;
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(b.SpjaBlock(q1, push), &plan).ok());
      ASSERT_TRUE(engine.ExecutePlan("plan", plan, opts).ok());

      const Table* qout = nullptr;
      const Table* pout = nullptr;
      ASSERT_TRUE(engine.GetResult("query", &qout).ok());
      ASSERT_TRUE(engine.GetResult("plan", &pout).ok());
      EXPECT_EQ(OrderedRows(*qout), OrderedRows(*pout)) << what;
      EXPECT_EQ(StatBytes(engine, "query"), StatBytes(engine, "plan")) << what;
      EXPECT_GT(StatBytes(engine, "query"), 0u) << what;

      std::vector<rid_t> outs;
      for (rid_t o = 0; o < qout->num_rows(); ++o) outs.push_back(o);
      for (bool dedup : {false, true}) {
        std::vector<rid_t> qb, pb;
        Status qs = engine.Backward("query", "lineitem", outs, &qb, dedup);
        Status ps = engine.Backward("plan", "lineitem", outs, &pb, dedup);
        EXPECT_EQ(qs.ToString(), ps.ToString()) << what;
        EXPECT_EQ(qb, pb) << what;
      }
      TraceResult qf, pf;
      ASSERT_TRUE(
          engine.TraceForward("query", "lineitem", {0, 7, 99}, &qf).ok());
      ASSERT_TRUE(engine.TraceForward("plan", "lineitem", {0, 7, 99}, &pf).ok());
      EXPECT_EQ(qf.rids, pf.rids) << what;

      // Every strategy over plain, skip-pinned and cube-shaped traces
      // resolves and answers identically on both retained results.
      for (TraceStrategy strategy :
           {TraceStrategy::kAuto, TraceStrategy::kIndexed,
            TraceStrategy::kLazy, TraceStrategy::kSkipping,
            TraceStrategy::kCube}) {
        for (int shape = 0; shape < 3; ++shape) {
          auto run = [&](const std::string& name, TraceStrategy* resolved,
                         std::vector<std::string>* rows) {
            TraceSource src;
            EXPECT_TRUE(engine.MakeTraceSource(name, &src).ok());
            TraceBuilder tb = TraceBuilder::Backward(src, "lineitem", {1});
            if (shape == 1) {
              tb.Filter(
                  Predicate::Str(tpch::kLShipmode, CmpOp::kEq, "MAIL"));
            } else if (shape == 2) {
              tb.Consuming(by_tax);
            }
            tb.Strategy(strategy);
            LineageQuery lq;
            Status st = tb.Compile(&lq);
            if (!st.ok()) return st;
            *resolved = lq.strategy();
            PlanResult pr;
            SMOKE_RETURN_NOT_OK(lq.Execute(CaptureOptions::Inject(), &pr));
            *rows = OrderedRows(pr.output);
            return Status::OK();
          };
          TraceStrategy qstrat = TraceStrategy::kAuto;
          TraceStrategy pstrat = TraceStrategy::kAuto;
          std::vector<std::string> qrows, prows;
          Status qs = run("query", &qstrat, &qrows);
          Status ps = run("plan", &pstrat, &prows);
          const std::string where = what + " strategy " +
                                    TraceStrategyName(strategy) + " shape " +
                                    std::to_string(shape);
          EXPECT_EQ(qs.ToString(), ps.ToString()) << where;
          EXPECT_EQ(qstrat, pstrat) << where;
          EXPECT_EQ(qrows, prows) << where;
          // The artifact-backed strategies really resolve (not just fail
          // alike) when the block carries what they need.
          const bool expect_ok =
              (strategy == TraceStrategy::kLazy && shape == 0) ||
              (strategy == TraceStrategy::kSkipping && shape == 1 &&
               !push.skip_cols.empty()) ||
              (strategy == TraceStrategy::kCube && shape == 2 &&
               !push.cube_cols.empty());
          if (expect_ok) {
            EXPECT_TRUE(ps.ok()) << where << ": " << ps.ToString();
            EXPECT_EQ(pstrat, strategy) << where;
            EXPECT_FALSE(prows.empty()) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace smoke
