// The unified lineage-consumption API: Trace plan nodes, TraceBuilder
// compilation, physical strategy choices, typed engine handles, and the
// bounds-validated lineage query core.
#include "query/trace_builder.h"

#include <random>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "query/consuming.h"
#include "query/lazy.h"
#include "query/lineage_query.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

using testing::GroupedRows;
using testing::Sorted;

// ---------------------------------------------------------------------------
// TPC-H equivalence: the compiled consuming path must reproduce the legacy
// free-function results for Q1a/Q1b/Q1c under all four strategies.
// ---------------------------------------------------------------------------

class TraceEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new tpch::Database(tpch::Generate(0.01));
    q1_ = new SPJAQuery(tpch::MakeQ1(*db_));
    base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject()));

    SPJAPushdown skip;
    skip.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
    skip_base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject(), &skip));

    SPJAPushdown cube;
    cube.cube_cols = {tpch::kLTax};
    cube.cube_aggs = {
        AggSpec::Count("cnt"),
        AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
    cube_base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject(), &cube));
  }
  static void TearDownTestSuite() {
    delete cube_base_;
    delete skip_base_;
    delete base_;
    delete q1_;
    delete db_;
  }

  static TraceSource BaseSource() {
    return TraceSource::FromPlan(*base_, "q1");
  }

  static const RidVec& BackwardList(rid_t oid) {
    return base_->lineage.input(0).backward.index().list(oid);
  }

  static tpch::Database* db_;
  static SPJAQuery* q1_;
  static SPJAResult* base_;
  static SPJAResult* skip_base_;
  static SPJAResult* cube_base_;
};
tpch::Database* TraceEquivalenceTest::db_ = nullptr;
SPJAQuery* TraceEquivalenceTest::q1_ = nullptr;
SPJAResult* TraceEquivalenceTest::base_ = nullptr;
SPJAResult* TraceEquivalenceTest::skip_base_ = nullptr;
SPJAResult* TraceEquivalenceTest::cube_base_ = nullptr;

TEST_F(TraceEquivalenceTest, Q1aIndexedMatchesLegacy) {
  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    PlanResult pr;
    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    b.Consuming(q1a).Strategy(TraceStrategy::kIndexed);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), TraceStrategy::kIndexed);
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());

    auto legacy = ConsumingOverRids(db_->lineitem, q1a, BackwardList(oid));
    ASSERT_EQ(GroupedRows(pr.output, 2), GroupedRows(legacy.output, 2))
        << "group " << oid;
    // Row-for-row: the compiled pipeline preserves first-encounter order.
    ASSERT_EQ(pr.output.num_rows(), legacy.output.num_rows());
    for (size_t r = 0; r < pr.output.num_rows(); ++r) {
      ASSERT_EQ(testing::RowKey(pr.output, static_cast<rid_t>(r)),
                testing::RowKey(legacy.output, static_cast<rid_t>(r)));
    }
    // The consuming query's own composed lineage matches the legacy
    // backward lists (same rids, same witness order).
    int rel = pr.lineage.FindInput("lineitem");
    ASSERT_GE(rel, 0);
    const LineageIndex& bw = pr.lineage.input(static_cast<size_t>(rel)).backward;
    ASSERT_EQ(bw.size(), legacy.backward.size());
    std::vector<rid_t> got;
    for (size_t g = 0; g < legacy.backward.size(); ++g) {
      got.clear();
      bw.TraceInto(static_cast<rid_t>(g), &got);
      const RidVec& want = legacy.backward.list(g);
      ASSERT_EQ(got, std::vector<rid_t>(want.begin(), want.end()))
          << "group " << oid << " cell " << g;
    }
  }
}

TEST_F(TraceEquivalenceTest, Q1bLazyMatchesLegacy) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    b.Consuming(q1b).Strategy(TraceStrategy::kLazy);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), TraceStrategy::kLazy);
    PlanResult pr;
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());

    auto preds = LazyBackwardPredicates(*q1_, base_->output, oid);
    auto legacy = ConsumingLazy(db_->lineitem, preds, q1b);
    ASSERT_EQ(GroupedRows(pr.output, 2), GroupedRows(legacy.output, 2))
        << "group " << oid;
  }
}

TEST_F(TraceEquivalenceTest, Q1bSkippingMatchesLegacy) {
  ASSERT_GT(skip_base_->skip_dict.num_codes, 0u);
  TraceSource src = TraceSource::FromPlan(*skip_base_, "q1skip");
  for (const std::string mode : {"MAIL", "RAIL"}) {
    for (const std::string instr : {"NONE", "COLLECT COD"}) {
      ConsumingSpec q1b = tpch::MakeQ1b(*db_, mode, instr);
      uint32_t code = skip_base_->skip_dict.CodeForString(
          mode + std::string("\x1f") + instr);
      ASSERT_NE(code, UINT32_MAX);
      for (rid_t oid = 0; oid < skip_base_->output.num_rows(); ++oid) {
        LineageQuery compiled;
        TraceBuilder b = TraceBuilder::Backward(src, "lineitem", {oid});
        b.Consuming(q1b).Strategy(TraceStrategy::kSkipping);
        ASSERT_TRUE(b.Compile(&compiled).ok());
        EXPECT_EQ(compiled.strategy(), TraceStrategy::kSkipping);
        PlanResult pr;
        ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());

        auto legacy = ConsumingSkipping(db_->lineitem, skip_base_->skip_index,
                                        oid, code, q1b);
        ASSERT_EQ(GroupedRows(pr.output, 2), GroupedRows(legacy.output, 2))
            << mode << "/" << instr << " oid " << oid;
      }
    }
  }
}

TEST_F(TraceEquivalenceTest, AutoResolvesSkippingFromArtifacts) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  TraceSource src = TraceSource::FromPlan(*skip_base_, "q1skip");
  LineageQuery compiled;
  TraceBuilder b = TraceBuilder::Backward(src, "lineitem", {0});
  b.Consuming(q1b);  // strategy stays kAuto
  ASSERT_TRUE(b.Compile(&compiled).ok());
  EXPECT_EQ(compiled.strategy(), TraceStrategy::kSkipping);

  // Without matching artifacts, auto falls back to indexed.
  LineageQuery compiled2;
  TraceBuilder b2 = TraceBuilder::Backward(BaseSource(), "lineitem", {0});
  b2.Consuming(q1b);
  ASSERT_TRUE(b2.Compile(&compiled2).ok());
  EXPECT_EQ(compiled2.strategy(), TraceStrategy::kIndexed);
}

TEST_F(TraceEquivalenceTest, Q1cCubeMatchesIndexed) {
  ASSERT_TRUE(cube_base_->cube.enabled());
  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  TraceSource src = TraceSource::FromPlan(*cube_base_, "q1cube");
  for (rid_t oid = 0; oid < cube_base_->output.num_rows(); ++oid) {
    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(src, "lineitem", {oid});
    b.Consuming(by_tax).Strategy(TraceStrategy::kCube);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), TraceStrategy::kCube);
    PlanResult pr;
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());

    auto legacy = ConsumingOverRids(db_->lineitem, by_tax, BackwardList(oid));
    ASSERT_EQ(GroupedRows(pr.output, 1), GroupedRows(legacy.output, 1))
        << "group " << oid;
  }
}

TEST_F(TraceEquivalenceTest, CubeResultOutlivesCompiledQuery) {
  // Regression: the reshaped cube table is owned by the compiled query; a
  // retained PlanResult must keep it alive after builder + compiled query
  // are gone (ASan flags the dangling borrow otherwise).
  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  PlanResult pr;
  {
    TraceBuilder b = TraceBuilder::Backward(
        TraceSource::FromPlan(*cube_base_, "q1cube"), "lineitem", {0});
    b.Consuming(by_tax).Strategy(TraceStrategy::kCube);
    ASSERT_TRUE(b.Execute(CaptureOptions::Inject(), &pr).ok());
  }
  ASSERT_EQ(pr.owned_tables.size(), 1u);
  ASSERT_GT(pr.lineage.num_inputs(), 0u);
  const TableLineage& tl = pr.lineage.input(0);
  ASSERT_NE(tl.table, nullptr);
  EXPECT_EQ(tl.table->num_rows(), pr.output.num_rows());
  Table rows;
  EXPECT_TRUE(MaterializeRowsChecked(*tl.table, {0}, &rows).ok());
}

TEST_F(TraceEquivalenceTest, SkippingRequiresCoveredRelation) {
  // Q12 joins orders into lineitem; partition the *fact* backward lists by
  // l_orderkey (column 0 — the same index as o_orderkey, the coincidence
  // that used to fool code resolution for the orders relation).
  SPJAQuery q12 = tpch::MakeQ12(*db_);
  SPJAPushdown push;
  push.skip_cols = {tpch::kLOrderkey};
  auto res = SPJAExec(q12, CaptureOptions::Inject(), &push);
  ASSERT_GT(res.skip_dict.num_codes, 0u);
  TraceSource src = TraceSource::FromPlan(res, "q12");
  const int64_t key = db_->lineitem.column(tpch::kLOrderkey).ints()[0];

  // Explicit skipping on a relation the skip index does not cover fails...
  LineageQuery lq;
  TraceBuilder bad = TraceBuilder::Backward(src, "orders", {0});
  bad.Filter(Predicate::Int(tpch::kOOrderkey, CmpOp::kEq, key))
      .GroupBy(GroupExpr::Raw(tpch::kOOrderkey, "k"))
      .Agg(AggSpec::Count("n"))
      .Strategy(TraceStrategy::kSkipping);
  EXPECT_FALSE(bad.Compile(&lq).ok());

  // ...and auto falls back to indexed instead of scanning fact partitions
  // as orders rows.
  TraceBuilder auto_b = TraceBuilder::Backward(src, "orders", {0});
  auto_b.Filter(Predicate::Int(tpch::kOOrderkey, CmpOp::kEq, key))
      .GroupBy(GroupExpr::Raw(tpch::kOOrderkey, "k"))
      .Agg(AggSpec::Count("n"));
  ASSERT_TRUE(auto_b.Compile(&lq).ok());
  EXPECT_EQ(lq.strategy(), TraceStrategy::kIndexed);

  // On the covered (fact) relation, skipping still resolves.
  TraceBuilder good = TraceBuilder::Backward(src, "lineitem", {0});
  good.Filter(Predicate::Int(tpch::kLOrderkey, CmpOp::kEq, key))
      .GroupBy(GroupExpr::Raw(tpch::kLOrderkey, "k"))
      .Agg(AggSpec::Count("n"));
  ASSERT_TRUE(good.Compile(&lq).ok());
  EXPECT_EQ(lq.strategy(), TraceStrategy::kSkipping);
}

TEST_F(TraceEquivalenceTest, Q1cChainMatchesLegacyUnderEveryStrategy) {
  // Hop 1 (Q1b) under each strategy that captures fine-grained lineage;
  // hop 2 (Q1c) always consumes the retained hop-1 plan's composed lineage.
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "SHIP", "COLLECT COD");
  ConsumingSpec q1c = tpch::MakeQ1c(*db_, "SHIP", "COLLECT COD");
  const rid_t oid = 0;

  auto legacy_q1b = ConsumingOverRids(db_->lineitem, q1b, BackwardList(oid));
  if (legacy_q1b.output.num_rows() == 0) GTEST_SKIP();
  const RidVec& legacy_sub = legacy_q1b.backward.list(0);
  auto legacy_q1c = ConsumingOverRids(db_->lineitem, q1c, legacy_sub);

  struct Case {
    TraceStrategy strategy;
    TraceSource src;
  };
  std::vector<Case> cases = {
      {TraceStrategy::kIndexed, BaseSource()},
      {TraceStrategy::kLazy, BaseSource()},
      {TraceStrategy::kSkipping,
       TraceSource::FromPlan(*skip_base_, "q1skip")},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(TraceStrategyName(c.strategy));
    PlanResult hop1;
    TraceBuilder b1 = TraceBuilder::Backward(c.src, "lineitem", {oid});
    b1.Consuming(q1b).Strategy(c.strategy);
    ASSERT_TRUE(b1.Execute(CaptureOptions::Inject(), &hop1).ok());
    ASSERT_EQ(GroupedRows(hop1.output, 2), GroupedRows(legacy_q1b.output, 2));

    // The chain: trace backward through the retained hop-1 plan.
    PlanResult hop2;
    TraceBuilder b2 = TraceBuilder::Backward(
        TraceSource::FromPlan(hop1, "q1b"), "lineitem", {0});
    b2.Consuming(q1c);
    ASSERT_TRUE(b2.Execute(CaptureOptions::Inject(), &hop2).ok());
    ASSERT_EQ(GroupedRows(hop2.output, 3), GroupedRows(legacy_q1c.output, 3));
  }
}

TEST_F(TraceEquivalenceTest, EngineConsumingQueriesChainOverPlans) {
  tpch::Database db = tpch::Generate(0.005);
  SmokeEngine eng;
  ASSERT_TRUE(eng.CreateTable("lineitem", std::move(db.lineitem)).ok());
  const Table* lineitem = nullptr;
  ASSERT_TRUE(eng.GetTable("lineitem", &lineitem).ok());
  SPJAQuery q1 = tpch::MakeQ1(*db_);
  q1.fact = lineitem;
  ASSERT_TRUE(eng.ExecuteQuery("q1", q1).ok());

  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  TraceSource q1_src;
  ASSERT_TRUE(eng.MakeTraceSource("q1", &q1_src).ok());
  TraceBuilder q1a_query =
      TraceBuilder::Backward(std::move(q1_src), "lineitem", {0});
  q1a_query.Consuming(q1a);
  ASSERT_TRUE(eng.ExecuteTraceQuery("q1a", q1a_query).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(eng.GetResult("q1a", &out).ok());
  EXPECT_GT(out->num_rows(), 0u);

  // The retained consuming result is an ordinary plan: string-keyed lineage
  // queries and further consuming chains work against it.
  std::vector<rid_t> rids;
  ASSERT_TRUE(eng.Backward("q1a", "lineitem", {0}, &rids).ok());
  EXPECT_GT(rids.size(), 0u);

  ConsumingSpec q1c = tpch::MakeQ1c(*db_, "SHIP", "COLLECT COD");
  TraceSource q1a_src;
  ASSERT_TRUE(eng.MakeTraceSource("q1a", &q1a_src).ok());
  TraceBuilder q1c_query =
      TraceBuilder::Backward(std::move(q1a_src), "lineitem", {0});
  q1c_query.Consuming(q1c);
  Status st = eng.ExecuteTraceQuery("q1c", q1c_query);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(eng.GetResult("q1c", &out).ok());
}

// ---------------------------------------------------------------------------
// Typed engine handles.
// ---------------------------------------------------------------------------

TEST(TraceHandleTest, TypedTraceMatchesStringShims) {
  tpch::Database db = tpch::Generate(0.005);
  SmokeEngine eng;
  ASSERT_TRUE(eng.CreateTable("lineitem", std::move(db.lineitem)).ok());
  const Table* lineitem = nullptr;
  ASSERT_TRUE(eng.GetTable("lineitem", &lineitem).ok());
  SPJAQuery q1 = tpch::MakeQ1(db);
  q1.fact = lineitem;  // rebind to the engine-owned relation
  ASSERT_TRUE(eng.ExecuteQuery("q1", q1).ok());

  TraceResult t;
  ASSERT_TRUE(eng.TraceBackward("q1", "lineitem", {0}, &t).ok());
  std::vector<rid_t> rids;
  ASSERT_TRUE(eng.Backward("q1", "lineitem", {0}, &rids).ok());
  EXPECT_EQ(t.rids, rids);
  EXPECT_EQ(t.rows.num_rows(), rids.size());
  EXPECT_EQ(t.rows.num_columns(), lineitem->num_columns());

  Table rows;
  ASSERT_TRUE(eng.BackwardRows("q1", "lineitem", {0}, &rows).ok());
  EXPECT_EQ(testing::RowSet(t.rows), testing::RowSet(rows));

  // The handle is chainable: forward over its own plan round-trips.
  TraceResult fwd;
  ASSERT_TRUE(eng.TraceForward("q1", "lineitem", t.rids, &fwd).ok());
  EXPECT_EQ(fwd.rids, std::vector<rid_t>{0});

  // Typed trace of an unknown query or relation fails cleanly.
  EXPECT_FALSE(eng.TraceBackward("nope", "lineitem", {0}, &t).ok());
  EXPECT_FALSE(eng.TraceBackward("q1", "nope", {0}, &t).ok());
  EXPECT_FALSE(eng.TraceBackward("q1", "lineitem", {999999}, &t).ok());
}

// ---------------------------------------------------------------------------
// Property: forward ∘ backward round-trips over random plan DAGs through
// the Trace API, for random rid subsets.
// ---------------------------------------------------------------------------

Table MakePropertyTable(std::mt19937* rng, size_t n) {
  Schema s;
  s.AddField("id", DataType::kInt64);
  s.AddField("a", DataType::kInt64);
  s.AddField("b", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  std::uniform_int_distribution<int64_t> da(0, 7), db(0, 19);
  std::uniform_real_distribution<double> dv(0.0, 100.0);
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({static_cast<int64_t>(i), da(*rng), db(*rng), dv(*rng)});
  }
  return t;
}

/// Builds one of three random plan shapes over `t`: select→group-by,
/// select→group-by→group-by (rollup), or bag-union of two selects→group-by.
LogicalPlan MakeRandomPlan(std::mt19937* rng, const Table* t) {
  PlanBuilder b;
  std::uniform_int_distribution<int> shape(0, 2), cut(0, 19);
  GroupBySpec ga;
  ga.keys = {1};  // a
  ga.aggs = {AggSpec::Count("cnt"),
             AggSpec::Sum(ScalarExpr::Col(3), "sum_v")};
  int root = -1;
  switch (shape(*rng)) {
    case 0: {
      int scan = b.Scan(t, "base");
      int sel = b.Select(scan, {Predicate::Int(2, CmpOp::kLe, cut(*rng))});
      root = b.GroupBy(sel, ga);
      break;
    }
    case 1: {
      int scan = b.Scan(t, "base");
      int sel = b.Select(scan, {Predicate::Int(2, CmpOp::kGe, cut(*rng))});
      int gb = b.GroupBy(sel, ga);
      GroupBySpec rollup;
      rollup.keys = {1};  // cnt (group-by output: a, cnt, sum_v)
      rollup.aggs = {AggSpec::Count("n_groups")};
      root = b.GroupBy(gb, rollup);
      break;
    }
    default: {
      int scan = b.Scan(t, "base");
      int s1 = b.Select(scan, {Predicate::Int(2, CmpOp::kLe, cut(*rng))});
      int s2 = b.Select(scan, {Predicate::Int(2, CmpOp::kGe, cut(*rng))});
      int u = b.SetOp(SetOpKind::kBagUnion, s1, s2, std::vector<int>{});
      root = b.GroupBy(u, ga);
      break;
    }
  }
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

TEST(TracePropertyTest, ForwardBackwardRoundTripsOverRandomPlans) {
  std::mt19937 rng(20180717);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Table t = MakePropertyTable(&rng, 4000);
    LogicalPlan plan = MakeRandomPlan(&rng, &t);
    PlanResult pr;
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &pr).ok());
    if (pr.output.num_rows() == 0) continue;
    TraceSource src = TraceSource::FromPlan(pr, "plan");

    // Random output subset O'.
    std::vector<rid_t> subset;
    std::uniform_int_distribution<rid_t> pick(
        0, static_cast<rid_t>(pr.output.num_rows() - 1));
    std::uniform_int_distribution<size_t> count(1, 5);
    size_t k = count(rng);
    for (size_t i = 0; i < k; ++i) subset.push_back(pick(rng));

    PlanResult back;
    ASSERT_TRUE(TraceBuilder::Backward(src, "base", subset)
                    .Dedup(true)
                    .Execute(CaptureOptions::Inject(), &back)
                    .ok());
    int rc = back.output.ColumnIndex(kTraceRidColumn);
    ASSERT_GE(rc, 0);
    const auto& bvals = back.output.column(static_cast<size_t>(rc)).ints();
    std::vector<rid_t> b_rids(bvals.begin(), bvals.end());

    if (b_rids.empty()) continue;
    PlanResult fwd;
    ASSERT_TRUE(TraceBuilder::Forward(src, "base", b_rids)
                    .Execute(CaptureOptions::Inject(), &fwd)
                    .ok());
    rc = fwd.output.ColumnIndex(kTraceRidColumn);
    ASSERT_GE(rc, 0);
    const auto& fvals = fwd.output.column(static_cast<size_t>(rc)).ints();
    std::set<rid_t> f_set(fvals.begin(), fvals.end());

    // Every output with nonempty backward lineage must be recovered.
    for (rid_t o : subset) {
      std::vector<rid_t> alone;
      ASSERT_TRUE(
          BackwardRidsChecked(pr.lineage, "base", {o}, true, &alone).ok());
      if (!alone.empty()) {
        EXPECT_TRUE(f_set.count(o)) << "output " << o << " lost";
      }
    }
    // And backward of the recovered outputs covers the traced inputs.
    std::vector<rid_t> f_rids(f_set.begin(), f_set.end());
    std::vector<rid_t> back2;
    ASSERT_TRUE(
        BackwardRidsChecked(pr.lineage, "base", f_rids, true, &back2).ok());
    std::set<rid_t> back2_set(back2.begin(), back2.end());
    for (rid_t r : b_rids) {
      EXPECT_TRUE(back2_set.count(r)) << "input " << r << " lost";
    }
  }
}

// ---------------------------------------------------------------------------
// Bounds validation (regression: out-of-range rids used to index OOB).
// ---------------------------------------------------------------------------

TEST(LineageBoundsTest, CheckedQueriesRejectOutOfRangeRids) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 10; ++i) t.AppendRow({i % 3});
  GroupBySpec spec;
  spec.keys = {0};
  spec.aggs = {AggSpec::Count("cnt")};
  auto res = GroupByExec(t, "t", spec, CaptureOptions::Inject());

  std::vector<rid_t> out;
  EXPECT_FALSE(
      BackwardRidsChecked(res.lineage, "t", {99}, false, &out).ok());
  EXPECT_FALSE(ForwardRidsChecked(res.lineage, "t", {10}, true, &out).ok());
  EXPECT_FALSE(
      BackwardRidsChecked(res.lineage, "missing", {0}, false, &out).ok());
  Table rows;
  EXPECT_FALSE(MaterializeRowsChecked(t, {10}, &rows).ok());
  EXPECT_FALSE(MaterializeRowsChecked(t, {0, 1, 12345}, &rows).ok());

  // In-range queries still work, and the boundary is exact.
  EXPECT_TRUE(BackwardRidsChecked(res.lineage, "t", {2}, false, &out).ok());
  EXPECT_FALSE(BackwardRidsChecked(res.lineage, "t", {3}, false, &out).ok());
  EXPECT_TRUE(MaterializeRowsChecked(t, {9}, &rows).ok());

  // Trace plan nodes report the same errors through Status.
  PlanResult base;
  PlanBuilder pb;
  int gb = pb.GroupBy(pb.Scan(&t, "t"), spec);
  LogicalPlan plan;
  ASSERT_TRUE(pb.Build(gb, &plan).ok());
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &base).ok());
  PlanResult pr;
  EXPECT_FALSE(TraceBuilder::Backward(TraceSource::FromPlan(base), "t", {99})
                   .Execute(CaptureOptions::Inject(), &pr)
                   .ok());
}

}  // namespace
}  // namespace smoke
