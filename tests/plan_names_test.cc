// Name-based column references in PlanBuilder: every node kind accepts
// column names resolved against its input schema at Build() time, unknown
// names come back as clear InvalidArgument Statuses (not aborts), and the
// index overloads keep working unchanged next to the named forms.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/executor.h"
#include "plan/plan.h"
#include "test_util.h"

namespace smoke {
namespace {

/// sales(region_id, amount, bonus, day, mode): 10 rows.
Table MakeSales() {
  Schema s;
  s.AddField("region_id", DataType::kInt64);
  s.AddField("amount", DataType::kFloat64);
  s.AddField("bonus", DataType::kFloat64);
  s.AddField("day", DataType::kInt64);
  s.AddField("mode", DataType::kString);
  Table t(s);
  const char* modes[] = {"air", "rail", "ship"};
  for (int64_t i = 0; i < 10; ++i) {
    t.AppendRow({i % 4, static_cast<double>(i + 1),
                 static_cast<double>((i * 3) % 7), 20240101 + (i % 3),
                 std::string(modes[i % 3])});
  }
  return t;
}

/// dims(region_id, weight): one row per region.
Table MakeDims() {
  Schema s;
  s.AddField("region_id", DataType::kInt64);
  s.AddField("weight", DataType::kFloat64);
  Table t(s);
  for (int64_t r = 0; r < 4; ++r) {
    t.AppendRow({r, static_cast<double>(r * 10)});
  }
  return t;
}

void ExpectSameOutput(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).type(), b.column(c).type()) << "col " << c;
    switch (a.column(c).type()) {
      case DataType::kInt64:
        EXPECT_EQ(a.column(c).ints(), b.column(c).ints()) << "col " << c;
        break;
      case DataType::kFloat64:
        EXPECT_EQ(a.column(c).doubles(), b.column(c).doubles())
            << "col " << c;
        break;
      case DataType::kString:
        EXPECT_EQ(a.column(c).strings(), b.column(c).strings())
            << "col " << c;
        break;
    }
  }
}

/// The full pipeline — select, derive, join, group-by, select-on-agg,
/// project — written once with names, once with indexes; outputs must
/// match exactly. `named` toggles the two spellings.
LogicalPlan BuildPipeline(const Table* sales, const Table* dims, bool named) {
  PlanBuilder b;
  int chain = b.Scan(sales, "sales");
  if (named) {
    chain = b.Select(chain,
                     {Predicate::Double("amount", CmpOp::kGe, 2.0),
                      Predicate::ColCmp("amount", CmpOp::kGt, "bonus"),
                      Predicate::IntIn("day", {20240101, 20240102}),
                      Predicate::Str("mode", CmpOp::kNe, "ship")});
    chain = b.Derive(chain, {GroupExpr::Raw("day", "d")});
  } else {
    chain = b.Select(chain,
                     {Predicate::Double(1, CmpOp::kGe, 2.0),
                      Predicate::ColCmp(1, CmpOp::kGt, 2, DataType::kFloat64),
                      Predicate::IntIn(3, {20240101, 20240102}),
                      Predicate::Str(4, CmpOp::kNe, "ship")});
    chain = b.Derive(chain, {GroupExpr::Raw(3, "d")});
  }

  JoinSpec join;
  if (named) {
    join.left_key_name = "region_id";
    join.right_key_name = "region_id";
  } else {
    join.left_key = 0;
    join.right_key = 0;
  }
  join.pk_build = true;
  int joined = b.HashJoin(b.Scan(dims, "dims"), chain, join);

  // Join output: dims(region_id, weight) ++ sales chain at offset 2;
  // the derived key "d" lands at index 7, "amount" at 3.
  GroupBySpec g;
  if (named) {
    g.key_names = {"d"};
    g.aggs = {AggSpec::Count("cnt"),
              AggSpec::Sum(ScalarExpr::Col("amount"), "sum_amount")};
  } else {
    g.keys = {7};
    g.aggs = {AggSpec::Count("cnt"),
              AggSpec::Sum(ScalarExpr::Col(3), "sum_amount")};
  }
  int agg = b.GroupBy(joined, g);

  // Resolution against a *derived* schema: the group-by's output columns.
  int have = named ? b.Select(agg, {Predicate::Int("cnt", CmpOp::kGe, 1)})
                   : b.Select(agg, {Predicate::Int(1, CmpOp::kGe, 1)});
  int proj = named ? b.Project(have, std::vector<std::string>{"d", "cnt"})
                   : b.Project(have, std::vector<int>{0, 1});

  LogicalPlan plan;
  EXPECT_TRUE(b.Build(proj, &plan).ok());
  return plan;
}

TEST(PlanNamesTest, NamedPipelineMatchesIndexedPipeline) {
  Table sales = MakeSales();
  Table dims = MakeDims();
  PlanResult named, indexed;
  ASSERT_TRUE(ExecutePlan(BuildPipeline(&sales, &dims, true),
                          CaptureOptions::Inject(), &named)
                  .ok());
  ASSERT_TRUE(ExecutePlan(BuildPipeline(&sales, &dims, false),
                          CaptureOptions::Inject(), &indexed)
                  .ok());
  ASSERT_GT(named.output.num_rows(), 0u);
  ExpectSameOutput(named.output, indexed.output);
}

TEST(PlanNamesTest, SetOpAndPushdownNamesMatchIndexed) {
  Table sales = MakeSales();
  auto build = [&sales](bool named) {
    PlanBuilder b;
    int lo = b.Select(b.Scan(&sales, "sales"),
                      {Predicate::Double(1, CmpOp::kLe, 7.0)});
    int hi = b.Select(b.Scan(&sales, "sales"),
                      {Predicate::Double(1, CmpOp::kGe, 4.0)});
    // Set-op columns resolve against the left child's schema.
    int is = named ? b.SetOp(SetOpKind::kSetIntersect, lo, hi,
                             std::vector<std::string>{"region_id", "day"})
                   : b.SetOp(SetOpKind::kSetIntersect, lo, hi,
                             std::vector<int>{0, 3});
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(is, &plan).ok());
    return plan;
  };
  PlanResult named, indexed;
  ASSERT_TRUE(ExecutePlan(build(true), CaptureOptions::Inject(), &named).ok());
  ASSERT_TRUE(
      ExecutePlan(build(false), CaptureOptions::Inject(), &indexed).ok());
  ASSERT_GT(named.output.num_rows(), 0u);
  ExpectSameOutput(named.output, indexed.output);

  // Capture push-downs live on SPJA blocks: a name-form push-down
  // predicate resolves against the fact schema, and both forms restrict
  // the captured backward lists the same way.
  auto run_push = [&sales](bool named, PlanResult* out) {
    PlanBuilder b;
    SPJAQuery q;
    q.fact = &sales;
    q.fact_name = "sales";
    q.group_by = {ColRef::Fact(0)};
    q.aggs = {AggSpec::Count("cnt")};
    SPJAPushdown push;
    push.sel_fact = {named ? Predicate::Double("amount", CmpOp::kGe, 5.0)
                           : Predicate::Double(1, CmpOp::kGe, 5.0)};
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(b.SpjaBlock(std::move(q), push), &plan).ok());
    return ExecutePlan(plan, CaptureOptions::Inject(), out);
  };
  PlanResult pn, pi;
  ASSERT_TRUE(run_push(true, &pn).ok());
  ASSERT_TRUE(run_push(false, &pi).ok());
  ExpectSameOutput(pn.output, pi.output);
  EXPECT_EQ(testing::Edges(pn.lineage.input(0).backward),
            testing::Edges(pi.lineage.input(0).backward));
  const auto& amount = sales.column(1).doubles();
  std::vector<rid_t> li;
  pi.lineage.input(0).backward.TraceInto(0, &li);
  ASSERT_FALSE(li.empty());
  for (rid_t r : li) EXPECT_GE(amount[r], 5.0);
}

/// An SPJA block — fact filters, a dimension filter, a selection
/// push-down — written with names or with indexes.
LogicalPlan BuildBlock(const Table* sales, const Table* dims, bool named) {
  SPJAQuery q;
  q.fact = sales;
  q.fact_name = "sales";
  SPJADim d;
  d.table = dims;
  d.name = "dims";
  d.pk_col = 0;
  d.fk = ColRef::Fact(0);
  SPJAPushdown push;
  if (named) {
    q.fact_filters = {Predicate::Double("amount", CmpOp::kGe, 2.0),
                      Predicate::ColCmp("amount", CmpOp::kGt, "bonus")};
    d.filters = {Predicate::Double("weight", CmpOp::kGe, 10.0)};
    push.sel_fact = {Predicate::Str("mode", CmpOp::kNe, "ship")};
  } else {
    q.fact_filters = {Predicate::Double(1, CmpOp::kGe, 2.0),
                      Predicate::ColCmp(1, CmpOp::kGt, 2, DataType::kFloat64)};
    d.filters = {Predicate::Double(1, CmpOp::kGe, 10.0)};
    push.sel_fact = {Predicate::Str(4, CmpOp::kNe, "ship")};
  }
  q.dims = {d};
  q.group_by = {ColRef::Fact(3)};
  q.aggs = {AggSpec::Count("cnt")};
  PlanBuilder b;
  LogicalPlan plan;
  EXPECT_TRUE(b.Build(b.SpjaBlock(std::move(q), push), &plan).ok());
  return plan;
}

TEST(PlanNamesTest, SpjaBlockNamesMatchIndexed) {
  Table sales = MakeSales();
  Table dims = MakeDims();
  PlanResult named, indexed;
  ASSERT_TRUE(ExecutePlan(BuildBlock(&sales, &dims, true),
                          CaptureOptions::Inject(), &named)
                  .ok());
  ASSERT_TRUE(ExecutePlan(BuildBlock(&sales, &dims, false),
                          CaptureOptions::Inject(), &indexed)
                  .ok());
  ASSERT_GT(named.output.num_rows(), 0u);
  ExpectSameOutput(named.output, indexed.output);
  ASSERT_EQ(named.lineage.num_inputs(), indexed.lineage.num_inputs());
  for (size_t i = 0; i < named.lineage.num_inputs(); ++i) {
    const TableLineage& n = named.lineage.input(i);
    const TableLineage& x = indexed.lineage.input(i);
    EXPECT_EQ(n.table_name, x.table_name);
    EXPECT_EQ(testing::Edges(n.backward), testing::Edges(x.backward))
        << n.table_name;
    EXPECT_EQ(testing::Edges(n.forward), testing::Edges(x.forward))
        << n.table_name;
  }
}

TEST(PlanNamesTest, TraceFiltersResolveAgainstEndpoint) {
  Table sales = MakeSales();
  PlanBuilder b;
  GroupBySpec g;
  g.key_names = {"region_id"};
  g.aggs = {AggSpec::Count("cnt")};
  LogicalPlan agg_plan;
  ASSERT_TRUE(b.Build(b.GroupBy(b.Scan(&sales, "sales"), g), &agg_plan).ok());
  PlanResult agg;
  ASSERT_TRUE(ExecutePlan(agg_plan, CaptureOptions::Inject(), &agg).ok());

  auto trace_rows = [&](std::vector<Predicate> filters, size_t* rows) {
    PlanBuilder tb;
    TraceSpec spec;
    spec.lineage = &agg.lineage;
    spec.relation = "sales";
    spec.direction = TraceDirection::kBackward;
    spec.seeds = {0};  // region 0: sales rids 0, 4, 8
    spec.filters = std::move(filters);
    LogicalPlan plan;
    SMOKE_RETURN_NOT_OK(
        tb.Build(tb.Trace(tb.Scan(&sales, "sales"), spec), &plan));
    PlanResult r;
    SMOKE_RETURN_NOT_OK(ExecutePlan(plan, CaptureOptions::Inject(), &r));
    *rows = r.output.num_rows();
    return Status::OK();
  };

  size_t unfiltered = 0, named = 0, indexed = 0;
  ASSERT_TRUE(trace_rows({}, &unfiltered).ok());
  ASSERT_EQ(unfiltered, 3u);
  ASSERT_TRUE(
      trace_rows({Predicate::Double("amount", CmpOp::kGe, 5.0)}, &named).ok());
  ASSERT_TRUE(
      trace_rows({Predicate::Double(1, CmpOp::kGe, 5.0)}, &indexed).ok());
  EXPECT_EQ(named, indexed);
  EXPECT_LT(named, unfiltered);
  EXPECT_GT(named, 0u);
}

TEST(PlanNamesTest, UnknownNamesAreClearStatuses) {
  Table sales = MakeSales();
  Table dims = MakeDims();
  auto expect_unknown = [](PlanBuilder* b, int root, const char* what) {
    LogicalPlan plan;
    Status st = b->Build(root, &plan);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << what;
    EXPECT_NE(st.message().find("unknown column 'nope'"), std::string::npos)
        << what << ": " << st.message();
    // The error names the input schema so the fix is obvious.
    EXPECT_NE(st.message().find("region_id"), std::string::npos)
        << what << ": " << st.message();
  };

  {
    PlanBuilder b;
    expect_unknown(&b,
                   b.Select(b.Scan(&sales, "sales"),
                            {Predicate::Int("nope", CmpOp::kEq, 1)}),
                   "select");
  }
  {
    PlanBuilder b;
    expect_unknown(&b,
                   b.Select(b.Scan(&sales, "sales"),
                            {Predicate::ColCmp("amount", CmpOp::kGt, "nope")}),
                   "select rhs");
  }
  {
    PlanBuilder b;
    expect_unknown(&b,
                   b.Project(b.Scan(&sales, "sales"),
                             std::vector<std::string>{"nope"}),
                   "project");
  }
  {
    PlanBuilder b;
    expect_unknown(
        &b, b.Derive(b.Scan(&sales, "sales"), {GroupExpr::Raw("nope", "x")}),
        "derive");
  }
  {
    PlanBuilder b;
    GroupBySpec g;
    g.key_names = {"nope"};
    g.aggs = {AggSpec::Count("cnt")};
    expect_unknown(&b, b.GroupBy(b.Scan(&sales, "sales"), g), "group-by key");
  }
  {
    PlanBuilder b;
    GroupBySpec g;
    g.keys = {0};
    g.aggs = {AggSpec::Sum(ScalarExpr::Col("nope"), "s")};
    expect_unknown(&b, b.GroupBy(b.Scan(&sales, "sales"), g), "agg expr");
  }
  {
    PlanBuilder b;
    JoinSpec j;
    j.left_key_name = "nope";
    j.right_key_name = "region_id";
    expect_unknown(
        &b, b.HashJoin(b.Scan(&dims, "dims"), b.Scan(&sales, "sales"), j),
        "join left key");
  }
  {
    PlanBuilder b;
    JoinSpec j;
    j.left_key_name = "region_id";
    j.right_key_name = "nope";
    expect_unknown(
        &b, b.HashJoin(b.Scan(&dims, "dims"), b.Scan(&sales, "sales"), j),
        "join right key");
  }
  {
    PlanBuilder b;
    expect_unknown(&b,
                   b.SetOp(SetOpKind::kSetIntersect, b.Scan(&sales, "sales"),
                           b.Scan(&sales, "sales"),
                           std::vector<std::string>{"nope"}),
                   "set op");
  }
  {
    // Trace filters resolve against the endpoint; unknown names fail the
    // same way.
    PlanBuilder b;
    GroupBySpec g;
    g.keys = {0};
    g.aggs = {AggSpec::Count("cnt")};
    LogicalPlan agg_plan;
    ASSERT_TRUE(
        b.Build(b.GroupBy(b.Scan(&sales, "sales"), g), &agg_plan).ok());
    PlanResult agg;
    ASSERT_TRUE(ExecutePlan(agg_plan, CaptureOptions::Inject(), &agg).ok());
    PlanBuilder tb;
    TraceSpec spec;
    spec.lineage = &agg.lineage;
    spec.relation = "sales";
    spec.seeds = {0};
    spec.filters = {Predicate::Int("nope", CmpOp::kEq, 1)};
    expect_unknown(&tb, tb.Trace(tb.Scan(&sales, "sales"), spec), "trace");
  }
  {
    // SPJA block predicates: a fact filter, the selection push-down and a
    // dimension filter each name the unknown column.
    for (int where = 0; where < 3; ++where) {
      SPJAQuery q;
      q.fact = &sales;
      q.fact_name = "sales";
      SPJADim d;
      d.table = &dims;
      d.name = "dims";
      d.pk_col = 0;
      d.fk = ColRef::Fact(0);
      SPJAPushdown push;
      const Predicate nope = Predicate::Int("nope", CmpOp::kEq, 1);
      if (where == 0) q.fact_filters = {nope};
      if (where == 1) push.sel_fact = {nope};
      if (where == 2) d.filters = {nope};
      q.dims = {d};
      q.group_by = {ColRef::Fact(0)};
      q.aggs = {AggSpec::Count("cnt")};
      PlanBuilder b;
      expect_unknown(&b, b.SpjaBlock(std::move(q), push),
                     where == 0   ? "spja fact filter"
                     : where == 1 ? "spja push-down"
                                  : "spja dim filter");
    }
  }
}

}  // namespace
}  // namespace smoke
