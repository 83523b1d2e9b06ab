// Tests for the composable plan API: plan shapes the monolithic SPJA block
// cannot express (aggregate-over-aggregate rollups, joins of aggregated
// subplans, select-over-aggregate), executed under both kInject and kDefer,
// with composed end-to-end lineage checked against brute-force references.
#include "plan/plan.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "engine/spja.h"
#include "plan/executor.h"
#include "test_util.h"

namespace smoke {
namespace {

using testing::AreInverse;
using testing::Edges;
using testing::GroupedRows;
using testing::Sorted;

/// sales(region_id, amount): 12 rows over 4 regions.
Table MakeSales() {
  Schema s;
  s.AddField("region_id", DataType::kInt64);
  s.AddField("amount", DataType::kFloat64);
  Table t(s);
  const int64_t regions[] = {0, 1, 2, 0, 1, 2, 3, 0, 1, 0, 3, 2};
  for (size_t i = 0; i < 12; ++i) {
    t.AppendRow({regions[i], static_cast<double>(i + 1)});
  }
  return t;
}

/// returns(region_id, amount): 8 rows over 3 regions (region 3 absent).
Table MakeReturns() {
  Schema s;
  s.AddField("region_id", DataType::kInt64);
  s.AddField("amount", DataType::kFloat64);
  Table t(s);
  const int64_t regions[] = {0, 1, 2, 0, 1, 0, 2, 1};
  for (size_t i = 0; i < 8; ++i) {
    t.AppendRow({regions[i], static_cast<double>(10 * (i + 1))});
  }
  return t;
}

/// Brute-force backward lineage of the rollup: final output row (keyed by
/// per-region count) -> base sales rids whose region has that count.
std::map<int64_t, std::multiset<rid_t>> RollupReference(const Table& sales) {
  std::map<int64_t, std::vector<rid_t>> by_region;
  const auto& region = sales.column(0).ints();
  for (rid_t r = 0; r < sales.num_rows(); ++r) {
    by_region[region[r]].push_back(r);
  }
  std::map<int64_t, std::multiset<rid_t>> by_count;
  for (const auto& [reg, rids] : by_region) {
    (void)reg;
    auto& dst = by_count[static_cast<int64_t>(rids.size())];
    dst.insert(rids.begin(), rids.end());
  }
  return by_count;
}

LogicalPlan BuildRollup(const Table* sales) {
  PlanBuilder b;
  int scan = b.Scan(sales, "sales");
  GroupBySpec per_region;
  per_region.keys = {0};
  per_region.aggs = {AggSpec::Count("cnt"),
                     AggSpec::Sum(ScalarExpr::Col(1), "sum_amount")};
  int gb1 = b.GroupBy(scan, per_region);
  // Roll up the per-region aggregate by its count column (index 1 of the
  // intermediate schema [region_id, cnt, sum_amount]).
  GroupBySpec by_count;
  by_count.keys = {1};
  by_count.aggs = {AggSpec::Count("regions"),
                   AggSpec::Sum(ScalarExpr::Col(2), "total")};
  int gb2 = b.GroupBy(gb1, by_count);
  LogicalPlan plan;
  EXPECT_TRUE(b.Build(gb2, &plan).ok());
  return plan;
}

TEST(PlanRollupTest, AggregateOverAggregateMatchesBruteForce) {
  Table sales = MakeSales();
  LogicalPlan plan = BuildRollup(&sales);

  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer}) {
    PlanResult res;
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Mode(mode), &res).ok());

    auto ref = RollupReference(sales);
    ASSERT_EQ(res.output.num_rows(), ref.size());
    ASSERT_EQ(res.lineage.num_inputs(), 1u);
    EXPECT_EQ(res.lineage.input(0).table_name, "sales");
    EXPECT_EQ(res.lineage.output_cardinality(), res.output.num_rows());

    const auto& cnt_key = res.output.column(0).ints();
    const auto& totals = res.output.column("total").doubles();
    ASSERT_EQ(res.lineage.input(0).backward.kind(),
              LineageIndex::Kind::kIndex);
    const RidIndex& bw = res.lineage.input(0).backward.index();
    const auto& amounts = sales.column(1).doubles();
    for (rid_t o = 0; o < res.output.num_rows(); ++o) {
      ASSERT_TRUE(ref.count(cnt_key[o])) << cnt_key[o];
      std::multiset<rid_t> got(bw.list(o).begin(), bw.list(o).end());
      EXPECT_EQ(got, ref[cnt_key[o]]) << "count bucket " << cnt_key[o];
      double sum = 0;
      for (rid_t r : bw.list(o)) sum += amounts[r];
      EXPECT_NEAR(sum, totals[o], 1e-9);
    }
    EXPECT_TRUE(AreInverse(res.lineage.input(0).backward,
                           res.lineage.input(0).forward));
  }
}

TEST(PlanRollupTest, InjectAndDeferAgree) {
  Table sales = MakeSales();
  LogicalPlan plan = BuildRollup(&sales);
  PlanResult inj, def;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &inj).ok());
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Defer(), &def).ok());
  EXPECT_EQ(GroupedRows(inj.output, 1), GroupedRows(def.output, 1));
  EXPECT_EQ(Edges(inj.lineage.input(0).backward),
            Edges(def.lineage.input(0).backward));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(def.lineage.input(0).forward));
}

/// Join of two aggregated subplans: per-region sales joined with per-region
/// returns — a bushy shape with two group-by pipeline breakers feeding a
/// join, inexpressible as a single SPJA block.
LogicalPlan BuildJoinOfAggregates(const Table* sales, const Table* returns) {
  PlanBuilder b;
  GroupBySpec agg;
  agg.keys = {0};
  agg.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(1), "sum")};
  int left = b.GroupBy(b.Scan(sales, "sales"), agg);
  int right = b.GroupBy(b.Scan(returns, "returns"), agg);
  JoinSpec join;
  join.left_key = 0;
  join.right_key = 0;
  join.pk_build = true;  // group-by outputs are keyed by region: unique
  int root = b.HashJoin(left, right, join);
  LogicalPlan plan;
  EXPECT_TRUE(b.Build(root, &plan).ok());
  return plan;
}

TEST(PlanJoinOfAggregatesTest, LineageToBothBaseTables) {
  Table sales = MakeSales();
  Table returns = MakeReturns();
  LogicalPlan plan = BuildJoinOfAggregates(&sales, &returns);

  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer}) {
    PlanResult res;
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Mode(mode), &res).ok());
    ASSERT_EQ(res.lineage.num_inputs(), 2u);
    EXPECT_EQ(res.lineage.input(0).table_name, "sales");
    EXPECT_EQ(res.lineage.input(1).table_name, "returns");

    // Output: one row per region present in both tables (regions 0, 1, 2).
    ASSERT_EQ(res.output.num_rows(), 3u);
    const auto& out_region = res.output.column(0).ints();
    const auto& s_region = sales.column(0).ints();
    const auto& r_region = returns.column(0).ints();

    for (size_t side = 0; side < 2; ++side) {
      const Table& base = side == 0 ? sales : returns;
      const auto& base_region = side == 0 ? s_region : r_region;
      const LineageIndex& bw = res.lineage.input(side).backward;
      ASSERT_EQ(bw.kind(), LineageIndex::Kind::kIndex);
      for (rid_t o = 0; o < res.output.num_rows(); ++o) {
        // Brute force: all base rids of the output's region, exactly once.
        std::multiset<rid_t> want;
        for (rid_t r = 0; r < base.num_rows(); ++r) {
          if (base_region[r] == out_region[o]) want.insert(r);
        }
        std::multiset<rid_t> got(bw.index().list(o).begin(),
                                 bw.index().list(o).end());
        EXPECT_EQ(got, want) << "side " << side << " output " << o;
      }
      EXPECT_TRUE(AreInverse(bw, res.lineage.input(side).forward));
    }
  }
}

TEST(PlanSelectOverAggregateTest, HavingClauseLineage) {
  Table sales = MakeSales();
  PlanBuilder b;
  GroupBySpec agg;
  agg.keys = {0};
  agg.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(1), "sum")};
  int gb = b.GroupBy(b.Scan(&sales, "sales"), agg);
  // HAVING COUNT(*) >= 3 — a selection over aggregate output, which SPJA
  // blocks (filters before aggregation only) cannot express.
  int root = b.Select(gb, {Predicate::Int(1, CmpOp::kGe, 3)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());

  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());

  // Brute force: regions with >= 3 sales rows.
  std::map<int64_t, std::multiset<rid_t>> ref;
  const auto& region = sales.column(0).ints();
  for (rid_t r = 0; r < sales.num_rows(); ++r) ref[region[r]].insert(r);
  for (auto it = ref.begin(); it != ref.end();) {
    it = it->second.size() >= 3 ? std::next(it) : ref.erase(it);
  }

  ASSERT_EQ(res.output.num_rows(), ref.size());
  const auto& out_region = res.output.column(0).ints();
  const RidIndex& bw = res.lineage.input(0).backward.index();
  for (rid_t o = 0; o < res.output.num_rows(); ++o) {
    std::multiset<rid_t> got(bw.list(o).begin(), bw.list(o).end());
    EXPECT_EQ(got, ref.at(out_region[o]));
  }
  EXPECT_TRUE(AreInverse(res.lineage.input(0).backward,
                         res.lineage.input(0).forward));

  // Forward through the HAVING filter: rows of a filtered-out region reach
  // no output.
  const LineageIndex& fw = res.lineage.input(0).forward;
  std::set<int64_t> surviving;
  for (rid_t o = 0; o < res.output.num_rows(); ++o) {
    surviving.insert(out_region[o]);
  }
  std::vector<rid_t> outs;
  for (rid_t r = 0; r < sales.num_rows(); ++r) {
    outs.clear();
    fw.TraceInto(r, &outs);
    EXPECT_EQ(outs.empty(), surviving.count(region[r]) == 0) << "rid " << r;
  }
}

TEST(PlanProjectTest, IdentityLineagePassesThrough) {
  Table sales = MakeSales();
  PlanBuilder b;
  GroupBySpec agg;
  agg.keys = {0};
  agg.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(b.Scan(&sales, "sales"), agg);
  int root = b.Project(gb, std::vector<int>{1});  // keep only the count column
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());

  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());
  ASSERT_EQ(res.output.num_columns(), 1u);
  EXPECT_EQ(res.output.schema().field(0).name, "cnt");

  // Projection must not disturb the group-by lineage.
  PlanBuilder b2;
  int gb2 = b2.GroupBy(b2.Scan(&sales, "sales"), agg);
  LogicalPlan bare;
  ASSERT_TRUE(b2.Build(gb2, &bare).ok());
  PlanResult ref;
  ASSERT_TRUE(ExecutePlan(bare, CaptureOptions::Inject(), &ref).ok());
  EXPECT_EQ(Edges(res.lineage.input(0).backward),
            Edges(ref.lineage.input(0).backward));
  EXPECT_EQ(Edges(res.lineage.input(0).forward),
            Edges(ref.lineage.input(0).forward));
}

TEST(PlanSetOpTest, UnionOfFilteredScans) {
  Table sales = MakeSales();
  PlanBuilder b;
  int cheap = b.Select(b.Scan(&sales, "sales_a"),
                       {Predicate::Double(1, CmpOp::kLt, 4.0)});
  int dear = b.Select(b.Scan(&sales, "sales_b"),
                      {Predicate::Double(1, CmpOp::kGt, 10.0)});
  int root = b.SetOp(SetOpKind::kBagUnion, cheap, dear, std::vector<int>{});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());

  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());
  ASSERT_EQ(res.lineage.num_inputs(), 2u);
  const auto& amounts = sales.column(1).doubles();
  // Every output row traces to exactly one base row on exactly one side,
  // and that row satisfies the side's predicate.
  size_t traced = 0;
  for (size_t side = 0; side < 2; ++side) {
    const LineageIndex& bw = res.lineage.input(side).backward;
    std::vector<rid_t> rids;
    for (rid_t o = 0; o < res.output.num_rows(); ++o) {
      rids.clear();
      bw.TraceInto(o, &rids);
      ASSERT_LE(rids.size(), 1u);
      if (rids.empty()) continue;
      ++traced;
      if (side == 0) EXPECT_LT(amounts[rids[0]], 4.0);
      else EXPECT_GT(amounts[rids[0]], 10.0);
    }
  }
  EXPECT_EQ(traced, res.output.num_rows());
}

// ---------------------------------------------------------------------------
// SPJA equivalence: the canonical primitive-composed plan (select under a
// pk-fk join under a group-by) produces the same output and the same
// end-to-end lineage edge sets as the fused SPJA block.
// ---------------------------------------------------------------------------

struct StarSchema {
  Table fact;  // (fk, v)
  Table dim;   // (pk, attr)
};

StarSchema MakeStar() {
  StarSchema db;
  Schema fs;
  fs.AddField("fk", DataType::kInt64);
  fs.AddField("v", DataType::kFloat64);
  db.fact = Table(fs);
  const int64_t fks[] = {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 4, 4, 2, 0, 3, 1};
  for (size_t i = 0; i < 16; ++i) {
    db.fact.AppendRow({fks[i], static_cast<double>(i)});
  }
  Schema ds;
  ds.AddField("pk", DataType::kInt64);
  ds.AddField("attr", DataType::kInt64);
  db.dim = Table(ds);
  for (int64_t pk = 0; pk < 5; ++pk) {
    db.dim.AppendRow({pk, pk % 2});
  }
  return db;
}

TEST(PlanSpjaEquivalenceTest, PrimitivePlanMatchesFusedBlock) {
  StarSchema db = MakeStar();

  // Fused block: SELECT attr, COUNT(*), SUM(v) FROM fact JOIN dim
  // WHERE v >= 2 AND pk <= 3 GROUP BY attr.
  SPJAQuery q;
  q.fact = &db.fact;
  q.fact_name = "fact";
  q.fact_filters = {Predicate::Double(1, CmpOp::kGe, 2.0)};
  SPJADim dim;
  dim.table = &db.dim;
  dim.name = "dim";
  dim.pk_col = 0;
  dim.fk = ColRef::Fact(0);
  dim.filters = {Predicate::Int(0, CmpOp::kLe, 3)};
  q.dims = {dim};
  q.group_by = {ColRef::Dim(0, 1)};
  q.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(1), "sum_v")};
  SPJAResult fused = SPJAExec(q, CaptureOptions::Inject());

  // Primitive composition of the same query. Join output schema is
  // [pk, attr, fk, v]; group by attr (col 1), aggregate v (col 3).
  PlanBuilder b;
  int dim_sel = b.Select(b.Scan(&db.dim, "dim"),
                         {Predicate::Int(0, CmpOp::kLe, 3)});
  int fact_sel = b.Select(b.Scan(&db.fact, "fact"),
                          {Predicate::Double(1, CmpOp::kGe, 2.0)});
  JoinSpec join;
  join.left_key = 0;   // dim pk (build side)
  join.right_key = 0;  // fact fk (probe side)
  join.pk_build = true;
  int joined = b.HashJoin(dim_sel, fact_sel, join);
  GroupBySpec agg;
  agg.keys = {1};
  agg.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(3), "sum_v")};
  int root = b.GroupBy(joined, agg);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());

  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer}) {
    PlanResult composed;
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Mode(mode), &composed).ok());

    EXPECT_EQ(GroupedRows(composed.output, 1), GroupedRows(fused.output, 1));

    // Outputs may be emitted in different group orders; align by key value.
    std::map<int64_t, rid_t> fused_by_key, composed_by_key;
    for (rid_t g = 0; g < fused.output.num_rows(); ++g) {
      fused_by_key[fused.output.column(0).ints()[g]] = g;
    }
    for (rid_t g = 0; g < composed.output.num_rows(); ++g) {
      composed_by_key[composed.output.column(0).ints()[g]] = g;
    }
    ASSERT_EQ(fused_by_key.size(), composed_by_key.size());

    // input 0 of the composed plan is "dim" (scan creation order); the
    // fused block lists fact first.
    ASSERT_EQ(composed.lineage.input(0).table_name, "dim");
    ASSERT_EQ(composed.lineage.input(1).table_name, "fact");
    for (const auto& [key, fg] : fused_by_key) {
      rid_t cg = composed_by_key.at(key);
      for (size_t t = 0; t < 2; ++t) {
        const LineageIndex& fbw = fused.lineage.input(t).backward;
        const LineageIndex& cbw =
            composed.lineage.input(t == 0 ? 1 : 0).backward;
        std::vector<rid_t> fr, cr;
        fbw.TraceInto(fg, &fr);
        cbw.TraceInto(cg, &cr);
        EXPECT_EQ(Sorted(fr), Sorted(cr)) << "table " << t << " key " << key;
      }
    }
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(AreInverse(composed.lineage.input(i).backward,
                             composed.lineage.input(i).forward));
    }
  }
}

TEST(PlanValidationTest, RejectsMalformedPlans) {
  Table sales = MakeSales();
  {
    PlanBuilder b;
    LogicalPlan plan;
    EXPECT_FALSE(b.Build(0, &plan).ok());  // no nodes
  }
  {
    PlanBuilder b;
    int scan = b.Scan(&sales, "sales");
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(scan, &plan).ok());
    PlanResult res;
    EXPECT_FALSE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());
  }
  {
    PlanBuilder b;
    int scan = b.Scan(nullptr, "ghost");
    int root = b.Select(scan, {});
    LogicalPlan plan;
    EXPECT_FALSE(b.Build(root, &plan).ok());
  }
  {
    // Empty projections are rejected at Build.
    PlanBuilder b;
    int root = b.Project(b.Scan(&sales, "sales"), std::vector<int>{});
    LogicalPlan plan;
    EXPECT_FALSE(b.Build(root, &plan).ok());
  }
  {
    // Out-of-range join keys surface as a Status, not UB.
    PlanBuilder b;
    JoinSpec join;  // left_key/right_key left at -1
    int root =
        b.HashJoin(b.Scan(&sales, "a"), b.Scan(&sales, "b"), join);
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(root, &plan).ok());
    PlanResult res;
    EXPECT_FALSE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());
  }
  {
    // Logic modes are single-block only.
    Table sales2 = MakeSales();
    PlanBuilder b;
    GroupBySpec agg;
    agg.keys = {0};
    agg.aggs = {AggSpec::Count("cnt")};
    int gb = b.GroupBy(b.Scan(&sales2, "sales"), agg);
    int root = b.Select(gb, {Predicate::Int(1, CmpOp::kGe, 1)});
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(root, &plan).ok());
    PlanResult res;
    EXPECT_FALSE(
        ExecutePlan(plan, CaptureOptions::Mode(CaptureMode::kLogicRid), &res)
            .ok());
  }
}

TEST(PlanValidationTest, TypeMismatchedPredicateIsAStatusWithoutOptimizer) {
  // Regression: with the optimizer off nothing validated the plan, and a
  // float64 predicate on an int64 column aborted inside the selection
  // kernel. Both settings now reject it with InvalidArgument.
  Schema s;
  s.AddField("k", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 5; ++i) t.AppendRow({i});
  PlanBuilder b;
  int root = b.Select(b.Scan(&t, "t"),
                      {Predicate::Double("k", CmpOp::kLt, 3.0)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());
  for (bool optimize : {true, false}) {
    CaptureOptions opts = CaptureOptions::Inject();
    opts.optimize = optimize;
    PlanResult res;
    Status st = ExecutePlan(plan, opts, &res);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
        << (optimize ? "optimizer on: " : "optimizer off: ") << st.ToString();
  }
}

TEST(PlanPruningTest, RelationAndDirectionPruning) {
  Table sales = MakeSales();
  Table returns = MakeReturns();
  LogicalPlan plan = BuildJoinOfAggregates(&sales, &returns);

  CaptureOptions opts = CaptureOptions::Inject();
  opts.only_relations = {"sales"};
  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, opts, &res).ok());
  ASSERT_EQ(res.lineage.num_inputs(), 2u);
  EXPECT_FALSE(res.lineage.input(0).backward.empty());
  EXPECT_TRUE(res.lineage.input(1).backward.empty());
  EXPECT_TRUE(res.lineage.input(1).forward.empty());

  CaptureOptions bw_only = CaptureOptions::Inject();
  bw_only.capture_forward = false;
  PlanResult res2;
  ASSERT_TRUE(ExecutePlan(plan, bw_only, &res2).ok());
  EXPECT_FALSE(res2.lineage.input(0).backward.empty());
  EXPECT_TRUE(res2.lineage.input(0).forward.empty());
}

TEST(PlanDagTest, SharedSubplanMergesLineage) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  // Both set-op sides filter the SAME scan node: the DAG reaches the scan
  // through two paths, whose lineage must merge.
  int low = b.Select(scan, {Predicate::Double(1, CmpOp::kLt, 3.0)});
  int high = b.Select(scan, {Predicate::Double(1, CmpOp::kGt, 11.0)});
  int root = b.SetOp(SetOpKind::kBagUnion, low, high, std::vector<int>{});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());

  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());
  ASSERT_EQ(res.lineage.num_inputs(), 1u);
  const auto& amounts = sales.column(1).doubles();
  // Each output row traces to exactly one base row, across both paths.
  std::vector<rid_t> rids;
  size_t matched = 0;
  for (rid_t o = 0; o < res.output.num_rows(); ++o) {
    rids.clear();
    res.lineage.input(0).backward.TraceInto(o, &rids);
    ASSERT_EQ(rids.size(), 1u) << "output " << o;
    EXPECT_TRUE(amounts[rids[0]] < 3.0 || amounts[rids[0]] > 11.0);
    ++matched;
  }
  EXPECT_EQ(matched, res.output.num_rows());
  EXPECT_TRUE(AreInverse(res.lineage.input(0).backward,
                         res.lineage.input(0).forward));
}

}  // namespace
}  // namespace smoke
