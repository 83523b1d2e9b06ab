// The optimizer layer: rule-based plan rewriting (bit-identical results AND
// lineage, checked optimize-on vs optimize-off), cost-based trace strategy
// selection, schema inference / plan validation, group-by capture
// push-downs, and the EXPLAIN record.
#include "optimizer/optimizer.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/spja.h"
#include "lineage/store/lineage_store.h"
#include "optimizer/cost.h"
#include "plan/executor.h"
#include "query/lineage_query.h"
#include "query/trace_builder.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

// ---------------------------------------------------------------------------
// Helpers: bit-exact comparison of plan results (outputs and lineage)
// ---------------------------------------------------------------------------

void ExpectTablesBitIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).type(), b.column(c).type()) << "column " << c;
    switch (a.column(c).type()) {
      case DataType::kInt64:
        ASSERT_EQ(a.column(c).ints(), b.column(c).ints()) << "column " << c;
        break;
      case DataType::kFloat64: {
        const auto& x = a.column(c).doubles();
        const auto& y = b.column(c).doubles();
        ASSERT_EQ(x.size(), y.size());
        // Bitwise, not epsilon: optimized plans must run the identical
        // arithmetic.
        if (!x.empty()) {
          ASSERT_EQ(0, std::memcmp(x.data(), y.data(),
                                   x.size() * sizeof(double)))
              << "column " << c;
        }
        break;
      }
      case DataType::kString:
        ASSERT_EQ(a.column(c).strings(), b.column(c).strings())
            << "column " << c;
        break;
    }
  }
}

/// Per-position expansion of a lineage index, preserving stored list order
/// and duplicates — the "bits" of the lineage, independent of encoding.
std::vector<std::vector<rid_t>> ExpandIndex(const LineageIndex& idx) {
  std::vector<std::vector<rid_t>> lists(idx.size());
  for (size_t s = 0; s < idx.size(); ++s) {
    idx.TraceInto(static_cast<rid_t>(s), &lists[s]);
  }
  return lists;
}

void ExpectLineageBitIdentical(const QueryLineage& a, const QueryLineage& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.output_cardinality(), b.output_cardinality());
  for (size_t i = 0; i < a.num_inputs(); ++i) {
    const TableLineage& x = a.input(i);
    const TableLineage& y = b.input(i);
    ASSERT_EQ(x.table_name, y.table_name) << "input " << i;
    ASSERT_EQ(x.backward.kind(), y.backward.kind()) << x.table_name;
    ASSERT_EQ(x.forward.kind(), y.forward.kind()) << x.table_name;
    ASSERT_EQ(ExpandIndex(x.backward), ExpandIndex(y.backward))
        << x.table_name << " backward";
    ASSERT_EQ(ExpandIndex(x.forward), ExpandIndex(y.forward))
        << x.table_name << " forward";
  }
}

/// Runs `plan` with the rewriter on and off (same capture options
/// otherwise) and checks output + lineage are bit-identical. Returns the
/// optimized run's result for EXPLAIN assertions.
PlanResult ExpectOptimizeInvariant(const LogicalPlan& plan,
                                   int num_threads = 1) {
  CaptureOptions opts = CaptureOptions::Inject();
  opts.num_threads = num_threads;
  PlanResult with;
  EXPECT_TRUE(ExecutePlan(plan, opts, &with).ok());
  EXPECT_TRUE(with.explain.optimized);

  CaptureOptions raw = opts;
  raw.optimize = false;
  PlanResult without;
  EXPECT_TRUE(ExecutePlan(plan, raw, &without).ok());
  EXPECT_FALSE(without.explain.optimized);

  ExpectTablesBitIdentical(with.output, without.output);
  ExpectLineageBitIdentical(with.lineage, without.lineage);
  return with;
}

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

// ---------------------------------------------------------------------------
// Rewrite rules: bit-identity and EXPLAIN records
// ---------------------------------------------------------------------------

TEST(OptimizerRules, PushSelectThroughProject) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int proj = b.Project(scan, std::vector<int>{1, 0});  // amount, region_id
  int sel = b.Select(proj, {Predicate::Int(1, CmpOp::kEq, 0)});
  int agg = b.GroupBy(sel, {{1}, {AggSpec::Sum(ScalarExpr::Col(0), "amt")}});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("push_select_through_project"));
  EXPECT_FALSE(r.explain.plan_text.empty());
}

TEST(OptimizerRules, MergeSelectsAndElisions) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int sel1 = b.Select(scan, {Predicate::Int(0, CmpOp::kLe, 2)});
  int proj = b.Project(sel1, std::vector<int>{0, 1});  // identity
  int sel2 = b.Select(proj, {Predicate::Double(1, CmpOp::kGt, 2.0)});
  int sel3 = b.Select(sel2, {});  // predicate-free, absorbed by merge
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(sel3, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("elide_identity_project"));
  EXPECT_TRUE(r.explain.HasRule("merge_selects"));
  // Everything collapses into a single select over the scan: two plan
  // lines, no projection node left.
  EXPECT_EQ(std::count(r.explain.plan_text.begin(), r.explain.plan_text.end(),
                       '\n'),
            2);
  EXPECT_EQ(r.explain.plan_text.find("project ["), std::string::npos);
}

TEST(OptimizerRules, ElideEmptySelect) {
  // The predicate-free select sits over a group-by (not another select, or
  // merge_selects would absorb it first).
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int agg = b.GroupBy(scan, {{0}, {AggSpec::Count("cnt")}});
  int sel = b.Select(agg, {});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(sel, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("elide_empty_select"));
  EXPECT_EQ(r.explain.plan_text.find("select ["), std::string::npos);
}

TEST(OptimizerRules, MergeProjects) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int p1 = b.Project(scan, std::vector<int>{1, 0});
  int p2 = b.Project(p1, std::vector<int>{1});  // region_id only
  int agg = b.GroupBy(p2, {{0}, {AggSpec::Count("cnt")}});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("merge_projects"));
}

TEST(OptimizerRules, PushSelectThroughDerive) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int der = b.Derive(scan, {GroupExpr::Raw(0, "rid_key")});
  int sel = b.Select(der, {Predicate::Int(0, CmpOp::kNe, 3)});
  int agg = b.GroupBy(sel, {{2}, {AggSpec::Count("cnt")}});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("push_select_through_derive"));
}

TEST(OptimizerRules, PushSelectThroughSetOpAllKinds) {
  Table sales = MakeSales();
  Table returns = MakeReturns();
  const SetOpKind kinds[] = {SetOpKind::kSetUnion, SetOpKind::kBagUnion,
                             SetOpKind::kSetIntersect,
                             SetOpKind::kBagIntersect,
                             SetOpKind::kSetDifference};
  for (SetOpKind kind : kinds) {
    PlanBuilder b;
    int a = b.Scan(&sales, "sales");
    int r = b.Scan(&returns, "returns");
    int so = b.SetOp(kind, a, r, std::vector<int>{0});
    int sel = b.Select(so, {Predicate::Int(0, CmpOp::kLe, 1)});
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(sel, &plan).ok());

    PlanResult res = ExpectOptimizeInvariant(plan);
    EXPECT_TRUE(res.explain.HasRule("push_select_through_set_op"))
        << "kind " << static_cast<int>(kind);
  }
}

TEST(OptimizerRules, ConstantFolding) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  // amount * (2 + 3): the constant subtree folds to 5.0.
  ScalarExpr e = ScalarExpr::Mul(
      ScalarExpr::Col(1),
      ScalarExpr::Add(ScalarExpr::Const(2.0), ScalarExpr::Const(3.0)));
  int agg = b.GroupBy(scan, {{0}, {AggSpec::Sum(std::move(e), "amt5")}});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("fold_constants"));
}

TEST(OptimizerRules, SharedIdentityProjectElidedInPlace) {
  // A DAG-shared identity projection is elided by overwriting the node in
  // place, so *both* consumers see the scan directly and the converge point
  // of the lineage merge keeps its node id — results and lineage must stay
  // bit-identical.
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int proj = b.Project(scan, std::vector<int>{0, 1});  // identity, shared
  int agg1 = b.GroupBy(proj, {{0}, {AggSpec::Count("cnt")}});
  int agg2 = b.GroupBy(proj, {{0}, {AggSpec::Sum(ScalarExpr::Col(1), "amt")}});
  int join = b.HashJoin(agg1, agg2, JoinSpec{0, 0});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(join, &plan).ok());

  PlanResult r = ExpectOptimizeInvariant(plan);
  EXPECT_TRUE(r.explain.HasRule("elide_identity_project"));
  EXPECT_EQ(r.explain.plan_text.find("project ["), std::string::npos);
}

TEST(OptimizerRules, ParallelExecutionStaysInvariant) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int proj = b.Project(scan, std::vector<int>{0, 1});
  int sel = b.Select(proj, {Predicate::Int(0, CmpOp::kLe, 2)});
  int agg = b.GroupBy(sel, {{0}, {AggSpec::Sum(ScalarExpr::Col(1), "amt")}});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());
  ExpectOptimizeInvariant(plan, /*num_threads=*/7);
}

// ---------------------------------------------------------------------------
// Schema inference: malformed plans fail at optimize time with a Status
// ---------------------------------------------------------------------------

TEST(OptimizerValidation, RejectsOutOfRangePredicate) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  int sel = b.Select(scan, {Predicate::Int(99, CmpOp::kEq, 0)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(sel, &plan).ok());

  LogicalPlan out;
  Status st = OptimizePlan(plan, &out, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("out of range"), std::string::npos);

  PlanResult r;
  EXPECT_FALSE(ExecutePlan(plan, CaptureOptions::Inject(), &r).ok());
}

TEST(OptimizerValidation, RejectsPredicateTypeMismatch) {
  Table sales = MakeSales();
  PlanBuilder b;
  int scan = b.Scan(&sales, "sales");
  // Column 1 is float64; an int-typed predicate would abort inside the
  // selection kernel. The optimizer rejects it up front instead.
  int sel = b.Select(scan, {Predicate::Int(1, CmpOp::kEq, 0)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(sel, &plan).ok());
  LogicalPlan out;
  EXPECT_FALSE(OptimizePlan(plan, &out, nullptr).ok());
}

TEST(OptimizerValidation, RejectsNonIntJoinKey) {
  Table sales = MakeSales();
  PlanBuilder b;
  int a = b.Scan(&sales, "a");
  int c = b.Scan(&sales, "b");
  int join = b.HashJoin(a, c, JoinSpec{1, 1});  // float keys
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(join, &plan).ok());
  LogicalPlan out;
  Status st = OptimizePlan(plan, &out, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("int64"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Capture push-downs on a single-table SPJA block (a group-by with no
// dimensions)
// ---------------------------------------------------------------------------

/// GROUP BY region_id over `sales` as an SPJA block with no dimensions.
SPJAQuery SalesByRegion(const Table* sales, std::vector<AggSpec> aggs) {
  SPJAQuery q;
  q.fact = sales;
  q.fact_name = "sales";
  q.group_by = {ColRef::Fact(0)};
  q.aggs = std::move(aggs);
  return q;
}

TEST(SpjaPushdown, SelectionFiltersBackwardLists) {
  Table sales = MakeSales();
  SPJAPushdown push;
  push.sel_fact = {Predicate::Double(1, CmpOp::kGt, 5.0)};

  PlanBuilder b;
  int agg = b.SpjaBlock(SalesByRegion(&sales, {AggSpec::Count("cnt")}), push);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());

  PlanResult r;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &r).ok());
  EXPECT_EQ(r.applied_pushdown.sel_fact.size(), 1u);

  // Aggregates still cover every row; backward lists only qualifying rows.
  const auto& amount = sales.column(1).doubles();
  const LineageIndex& bw = r.lineage.input(0).backward;
  size_t listed = 0;
  for (rid_t g = 0; g < bw.size(); ++g) {
    std::vector<rid_t> rids;
    bw.TraceInto(g, &rids);
    for (rid_t rid : rids) {
      EXPECT_GT(amount[rid], 5.0);
      ++listed;
    }
  }
  size_t expect = 0;
  for (double v : amount) expect += v > 5.0 ? 1 : 0;
  EXPECT_EQ(listed, expect);
}

TEST(SpjaPushdown, SkippingReplacesBackwardIndexAndServesTraces) {
  Table sales = MakeSales();
  GroupBySpec spec{{0}, {AggSpec::Sum(ScalarExpr::Col(1), "amt")}};

  // Reference: a plain group-by, plain indexed backward trace with a
  // filter.
  PlanBuilder rb;
  int rscan = rb.Scan(&sales, "sales");
  int ragg = rb.GroupBy(rscan, spec);
  LogicalPlan rplan;
  ASSERT_TRUE(rb.Build(ragg, &rplan).ok());
  PlanResult ref;
  ASSERT_TRUE(ExecutePlan(rplan, CaptureOptions::Inject(), &ref).ok());

  // Push-down run: partitioned by region_id.
  SPJAPushdown push;
  push.skip_cols = {0};
  PlanBuilder b;
  int agg = b.SpjaBlock(SalesByRegion(&sales, spec.aggs), push);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(agg, &plan).ok());
  PlanResult r;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &r).ok());

  ExpectTablesBitIdentical(r.output, ref.output);
  EXPECT_GT(r.skip_index.num_codes(), 0u);
  EXPECT_EQ(r.skip_index.num_outputs(), r.output.num_rows());
  // The partitioned index replaces the plain backward index.
  EXPECT_TRUE(r.lineage.input(0).backward.empty());

  // A backward trace with the matching equality predicate resolves to the
  // skipping strategy (indexed is infeasible — the plain index is gone) and
  // returns exactly the reference rows of that partition.
  const int64_t region = sales.column(0).ints()[0];
  for (rid_t oid = 0; oid < r.output.num_rows(); ++oid) {
    LineageQuery q;
    TraceBuilder tb =
        TraceBuilder::Backward(TraceSource::FromPlan(r, "view"), "sales",
                               {oid});
    tb.Filter(Predicate::Int(0, CmpOp::kEq, region));
    ASSERT_TRUE(tb.Compile(&q).ok());
    EXPECT_EQ(q.strategy(), TraceStrategy::kSkipping);
    EXPECT_EQ(q.explain().strategy, "skipping");
    PlanResult traced;
    ASSERT_TRUE(q.Execute(CaptureOptions::Inject(), &traced).ok());

    // Reference: indexed trace over the no-push-down run, same filter.
    LineageQuery rq;
    TraceBuilder rtb = TraceBuilder::Backward(
        TraceSource::FromPlan(ref, "view"), "sales", {oid});
    rtb.Filter(Predicate::Int(0, CmpOp::kEq, region));
    ASSERT_TRUE(rtb.Compile(&rq).ok());
    EXPECT_EQ(rq.strategy(), TraceStrategy::kIndexed);
    PlanResult rtraced;
    ASSERT_TRUE(rq.Execute(CaptureOptions::Inject(), &rtraced).ok());
    ExpectTablesBitIdentical(traced.output, rtraced.output);
  }
}

TEST(SpjaPushdown, OnlyBlocksCarryPushdowns) {
  Table sales = MakeSales();
  // A push-down on any other node kind fails Build.
  PlanBuilder b;
  PlanNode gb;
  gb.kind = PlanOpKind::kGroupBy;
  gb.children = {b.Scan(&sales, "sales")};
  gb.group_by = {{0}, {AggSpec::Count("cnt")}};
  gb.pushdown.skip_cols = {0};
  LogicalPlan plan;
  Status st = b.Build(b.AddNode(std::move(gb)), &plan);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("SPJA blocks only"), std::string::npos);

  // A block's push-down columns are validated against the fact schema.
  SPJAPushdown push;
  push.skip_cols = {7};
  PlanBuilder bb;
  LogicalPlan bad;
  ASSERT_TRUE(
      bb.Build(bb.SpjaBlock(SalesByRegion(&sales, {AggSpec::Count("cnt")}),
                            push),
               &bad)
          .ok());
  PlanResult r;
  st = ExecutePlan(bad, CaptureOptions::Inject(), &r);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("push-down"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cost-based strategy selection + trace rewrites (TPC-H sources)
// ---------------------------------------------------------------------------

class OptimizerTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new tpch::Database(tpch::Generate(0.01));
    q1_ = new SPJAQuery(tpch::MakeQ1(*db_));
    base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject()));

    SPJAPushdown skip;
    skip.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
    skip_base_ =
        new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject(), &skip));
  }
  static void TearDownTestSuite() {
    delete skip_base_;
    delete base_;
    delete q1_;
    delete db_;
  }

  static TraceSource BaseSource() {
    return TraceSource::FromPlan(*base_, "q1");
  }

  static tpch::Database* db_;
  static SPJAQuery* q1_;
  static SPJAResult* base_;
  static SPJAResult* skip_base_;
};
tpch::Database* OptimizerTraceTest::db_ = nullptr;
SPJAQuery* OptimizerTraceTest::q1_ = nullptr;
SPJAResult* OptimizerTraceTest::base_ = nullptr;
SPJAResult* OptimizerTraceTest::skip_base_ = nullptr;

TEST_F(OptimizerTraceTest, AutoPicksIndexedOnPlainSource) {
  LineageQuery q;
  TraceBuilder b = TraceBuilder::Backward(BaseSource(), "lineitem", {0});
  ASSERT_TRUE(b.Compile(&q).ok());
  EXPECT_EQ(q.strategy(), TraceStrategy::kIndexed);
  EXPECT_EQ(q.explain().strategy, "indexed");
  EXPECT_NE(q.explain().strategy_detail.find("indexed:"), std::string::npos);
  EXPECT_NE(q.explain().strategy_detail.find("<- chosen"), std::string::npos);
  // Full EXPLAIN dump renders strategy, rules, and the plan.
  std::string dump = q.explain().ToString();
  EXPECT_NE(dump.find("strategy: indexed"), std::string::npos);
  EXPECT_NE(dump.find("plan:"), std::string::npos);
  EXPECT_NE(dump.find("trace"), std::string::npos);
}

TEST_F(OptimizerTraceTest, AutoPicksSkippingWithCoveringPartitionIndex) {
  LineageQuery q;
  TraceBuilder b = TraceBuilder::Backward(
      TraceSource::FromPlan(*skip_base_, "q1skip"), "lineitem", {0});
  b.Filter(Predicate::Str(tpch::kLShipmode, CmpOp::kEq, "MAIL"));
  b.Filter(Predicate::Str(tpch::kLShipinstruct, CmpOp::kEq, "NONE"));
  ASSERT_TRUE(b.Compile(&q).ok());
  EXPECT_EQ(q.strategy(), TraceStrategy::kSkipping);
  EXPECT_NE(q.explain().strategy_detail.find("skipping:"), std::string::npos);
}

TEST_F(OptimizerTraceTest, AutoFallsBackToIndexedWhenSkipIndexNotResident) {
  // Same artifacts, but the partitioned index itself was dropped (budget
  // eviction keeps the dictionary): the cost model must not choose
  // skipping over empty partitions.
  SPJAResult hollow = SPJAExec(*q1_, CaptureOptions::Inject());
  hollow.skip_dict = skip_base_->skip_dict;
  hollow.applied_pushdown = skip_base_->applied_pushdown;
  ASSERT_EQ(hollow.skip_index.num_codes(), 0u);

  LineageQuery q;
  TraceBuilder b = TraceBuilder::Backward(
      TraceSource::FromPlan(hollow, "q1hollow"), "lineitem", {0});
  b.Filter(Predicate::Str(tpch::kLShipmode, CmpOp::kEq, "MAIL"));
  b.Filter(Predicate::Str(tpch::kLShipinstruct, CmpOp::kEq, "NONE"));
  ASSERT_TRUE(b.Compile(&q).ok());
  EXPECT_EQ(q.strategy(), TraceStrategy::kIndexed);
  EXPECT_NE(q.explain().strategy_detail.find("skipping: infeasible"),
            std::string::npos);
}

// The cost model prices each strategy from the probed seeds alone: raw
// postings at their list sizes, encoded postings at their list sizes times
// the decode penalty, skipping at the size of each seed's partition.
TEST_F(OptimizerTraceTest, CostTraceStrategiesPricesTheProbedSeedsExactly) {
  const std::vector<rid_t> seeds = {0, 2};
  ASSERT_GT(base_->output.num_rows(), 2u);
  const auto& mode = db_->lineitem.column(tpch::kLShipmode).strings();
  const auto& instr = db_->lineitem.column(tpch::kLShipinstruct).strings();
  size_t rows = 0, mail_none = 0;
  for (rid_t seed : seeds) {
    std::vector<rid_t> rids;
    ASSERT_TRUE(
        BackwardRidsChecked(base_->lineage, "lineitem", {seed}, false, &rids)
            .ok());
    rows += rids.size();
    for (rid_t r : rids) {
      mail_none += mode[r] == "MAIL" && instr[r] == "NONE";
    }
  }
  ASSERT_GT(mail_none, 0u);

  // Raw postings.
  const int li = base_->lineage.FindInput("lineitem");
  ASSERT_GE(li, 0);
  ASSERT_EQ(base_->lineage.input(static_cast<size_t>(li)).backward.kind(),
            LineageIndex::Kind::kIndex);
  TraceCostReport raw =
      CostTraceStrategies(BaseSource(), "lineitem", seeds, {});
  ASSERT_TRUE(raw.indexed.feasible);
  EXPECT_EQ(raw.indexed.cost, static_cast<double>(rows));
  EXPECT_EQ(raw.chosen, TraceStrategy::kIndexed);

  // Adaptive-encoded postings.
  SPJAResult encoded = SPJAExec(*q1_, CaptureOptions::Inject());
  EncodeQueryLineage(&encoded.lineage, LineageCodec::kAdaptive);
  ASSERT_EQ(encoded.lineage.input(static_cast<size_t>(li)).backward.kind(),
            LineageIndex::Kind::kEncodedIndex);
  TraceCostReport enc = CostTraceStrategies(
      TraceSource::FromPlan(encoded, "q1enc"), "lineitem", seeds, {});
  ASSERT_TRUE(enc.indexed.feasible);
  EXPECT_DOUBLE_EQ(enc.indexed.cost, 1.25 * static_cast<double>(rows));
  EXPECT_EQ(enc.chosen, TraceStrategy::kIndexed);

  // Skip-partitioned, on the raw tier and frozen.
  const std::vector<Predicate> filters = {
      Predicate::Str(tpch::kLShipmode, CmpOp::kEq, "MAIL"),
      Predicate::Str(tpch::kLShipinstruct, CmpOp::kEq, "NONE")};
  for (bool frozen : {false, true}) {
    SCOPED_TRACE(frozen ? "frozen" : "raw");
    SPJAPushdown push;
    push.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
    SPJAResult skip = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
    if (frozen) skip.skip_index.Freeze(LineageCodec::kAdaptive);
    TraceCostReport r = CostTraceStrategies(
        TraceSource::FromPlan(skip, "q1skip"), "lineitem", seeds, filters);
    ASSERT_TRUE(r.skipping.feasible);
    EXPECT_EQ(r.skipping.cost, static_cast<double>(mail_none));
    EXPECT_EQ(r.chosen, TraceStrategy::kSkipping);
  }

  // Out-of-range seeds touch nothing.
  const rid_t past = static_cast<rid_t>(base_->output.num_rows());
  EXPECT_EQ(CostTraceStrategies(BaseSource(), "lineitem", {past}, {})
                .indexed.cost,
            0.0);
}

TEST_F(OptimizerTraceTest, AutoPicksLazyOnEvictedSource) {
  SPJAResult evicted = SPJAExec(*q1_, CaptureOptions::Inject());
  EvictQueryLineage(&evicted.lineage);

  LineageQuery q;
  TraceBuilder b = TraceBuilder::Backward(
      TraceSource::FromPlan(evicted, "q1evicted"), "lineitem", {0});
  ASSERT_TRUE(b.Compile(&q).ok());
  EXPECT_EQ(q.strategy(), TraceStrategy::kLazy);
  EXPECT_EQ(q.explain().strategy, "lazy");
  EXPECT_NE(q.explain().strategy_detail.find("indexed: infeasible"),
            std::string::npos);
  EXPECT_NE(q.explain().strategy_detail.find("lazy:"), std::string::npos);
}

TEST_F(OptimizerTraceTest, PushSelectIntoTraceBitIdentical) {
  for (rid_t oid = 0; oid < 3 && oid < base_->output.num_rows(); ++oid) {
    TraceBuilder on = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    on.Filter(Predicate::Str(tpch::kLShipmode, CmpOp::kEq, "MAIL"));
    LineageQuery qon;
    ASSERT_TRUE(on.Compile(&qon).ok());
    EXPECT_TRUE(qon.explain().HasRule("push_select_into_trace"));

    TraceBuilder off = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    off.Filter(Predicate::Str(tpch::kLShipmode, CmpOp::kEq, "MAIL"));
    off.Optimize(false);
    LineageQuery qoff;
    ASSERT_TRUE(off.Compile(&qoff).ok());
    EXPECT_TRUE(qoff.explain().rules.empty());

    PlanResult a, c;
    ASSERT_TRUE(qon.Execute(CaptureOptions::Inject(), &a).ok());
    ASSERT_TRUE(qoff.Execute(CaptureOptions::Inject(), &c).ok());
    ExpectTablesBitIdentical(a.output, c.output);
    ExpectLineageBitIdentical(a.lineage, c.lineage);
  }
}

TEST_F(OptimizerTraceTest, TraceHopFusionBitIdentical) {
  // Drill-down chain: backward out of q1, forward back into q1 (linked
  // brushing within one view exercises Trace∘Trace).
  for (rid_t oid = 0; oid < 3 && oid < base_->output.num_rows(); ++oid) {
    TraceBuilder on = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    on.ThenForward(BaseSource());
    LineageQuery qon;
    ASSERT_TRUE(on.Compile(&qon).ok());
    EXPECT_TRUE(qon.explain().HasRule("fuse_trace_hops"));

    TraceBuilder off = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    off.ThenForward(BaseSource());
    off.Optimize(false);
    LineageQuery qoff;
    ASSERT_TRUE(off.Compile(&qoff).ok());

    PlanResult a, c;
    ASSERT_TRUE(qon.Execute(CaptureOptions::Inject(), &a).ok());
    ASSERT_TRUE(qoff.Execute(CaptureOptions::Inject(), &c).ok());
    ExpectTablesBitIdentical(a.output, c.output);
    ExpectLineageBitIdentical(a.lineage, c.lineage);

    // And under kNone capture (results only, the crossfilter path).
    PlanResult an, cn;
    ASSERT_TRUE(qon.Execute(CaptureOptions::None(), &an).ok());
    ASSERT_TRUE(qoff.Execute(CaptureOptions::None(), &cn).ok());
    ExpectTablesBitIdentical(an.output, cn.output);
  }
}

TEST_F(OptimizerTraceTest, FusedChainWithFilterBitIdentical) {
  // Filter over the final endpoint (q1's output): col 2 is the first
  // aggregate (float64). The predicate lands inside the fused trace node.
  for (rid_t oid = 0; oid < 3 && oid < base_->output.num_rows(); ++oid) {
    TraceBuilder on = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    on.ThenForward(BaseSource());
    on.Filter(Predicate::Double(2, CmpOp::kGe, 0.0));
    LineageQuery qon;
    ASSERT_TRUE(on.Compile(&qon).ok());

    TraceBuilder off = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    off.ThenForward(BaseSource());
    off.Filter(Predicate::Double(2, CmpOp::kGe, 0.0));
    off.Optimize(false);
    LineageQuery qoff;
    ASSERT_TRUE(off.Compile(&qoff).ok());

    PlanResult a, c;
    ASSERT_TRUE(qon.Execute(CaptureOptions::Inject(), &a).ok());
    ASSERT_TRUE(qoff.Execute(CaptureOptions::Inject(), &c).ok());
    ExpectTablesBitIdentical(a.output, c.output);
    ExpectLineageBitIdentical(a.lineage, c.lineage);
  }
}

}  // namespace
}  // namespace smoke
