// The unified lineage-consumption API: Trace plan nodes, TraceBuilder
// compilation, physical strategy choices, typed engine handles, and the
// bounds-validated lineage query core.
#include "query/trace_builder.h"

#include <cmath>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "query/lineage_query.h"
#include "storage/dictionary.h"
#include "test_util.h"
#include "workloads/ontime.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

using testing::Sorted;

// ---------------------------------------------------------------------------
// TPC-H drill-downs: the compiled consuming queries must reproduce a
// brute-force scan of lineitem for Q1a/Q1b/Q1c under every strategy — counts,
// sums, and each output cell's captured lineage.
// ---------------------------------------------------------------------------

/// One drill-down cell of the brute-force reference.
struct RefCell {
  int64_t count = 0;
  double sum = 0;
  std::vector<rid_t> rids;  // member rows, ascending
};
using RefCells = std::map<std::vector<int64_t>, RefCell>;

/// Scans every lineitem row and keeps the members of Q1 output group `oid`
/// (Q1's shipdate cut, then the group's returnflag/linestatus). `keep`
/// filters further; `key_of` maps a member to its cell key. Each cell
/// counts its rows and sums `sum_col`.
template <typename Keep, typename KeyOf>
RefCells BruteDrill(const Table& lineitem, const Table& q1_out, rid_t oid,
                    int sum_col, Keep keep, KeyOf key_of) {
  const auto& shipdate = lineitem.column(tpch::kLShipdate).ints();
  const auto& flag = lineitem.column(tpch::kLReturnflag).strings();
  const auto& status = lineitem.column(tpch::kLLinestatus).strings();
  const auto& sum_vals =
      lineitem.column(static_cast<size_t>(sum_col)).doubles();
  const std::string want_flag = std::get<std::string>(q1_out.GetValue(oid, 0));
  const std::string want_status =
      std::get<std::string>(q1_out.GetValue(oid, 1));
  RefCells cells;
  for (rid_t r = 0; r < lineitem.num_rows(); ++r) {
    if (shipdate[r] > 19980902 || flag[r] != want_flag ||
        status[r] != want_status || !keep(r)) {
      continue;
    }
    RefCell& c = cells[key_of(r)];
    ++c.count;
    c.sum += sum_vals[r];
    c.rids.push_back(r);
  }
  return cells;
}

std::vector<int64_t> YearMonth(const Table& lineitem, rid_t r) {
  const int64_t d = lineitem.column(tpch::kLShipdate).ints()[r];
  return {d / 10000, (d / 100) % 100};
}

int64_t Tax100(const Table& lineitem, rid_t r) {
  return static_cast<int64_t>(
      std::llround(lineitem.column(tpch::kLTax).doubles()[r] * 100.0));
}

/// Row `r`'s first `nkeys` (int64) columns.
std::vector<int64_t> KeyOfRow(const Table& t, size_t nkeys, size_t r) {
  std::vector<int64_t> key;
  for (size_t k = 0; k < nkeys; ++k) key.push_back(t.column(k).ints()[r]);
  return key;
}

/// Compares a drill-down result against the reference: one output row per
/// cell, count and sum per cell, and — when `lineage` — each row's backward
/// lineage to lineitem equal to the cell's member rows.
void ExpectMatchesReference(const PlanResult& pr, size_t nkeys,
                            const std::string& count_col,
                            const std::string& sum_col, const RefCells& ref,
                            bool lineage) {
  ASSERT_EQ(pr.output.num_rows(), ref.size());
  const auto& counts = pr.output.column(count_col).ints();
  const auto& sums = pr.output.column(sum_col).doubles();
  const LineageIndex* bw = nullptr;
  if (lineage) {
    const int rel = pr.lineage.FindInput("lineitem");
    ASSERT_GE(rel, 0);
    bw = &pr.lineage.input(static_cast<size_t>(rel)).backward;
    ASSERT_EQ(bw->size(), ref.size());
  }
  std::vector<rid_t> got;
  for (size_t r = 0; r < pr.output.num_rows(); ++r) {
    auto it = ref.find(KeyOfRow(pr.output, nkeys, r));
    ASSERT_NE(it, ref.end()) << "row " << r << " is no reference cell";
    EXPECT_EQ(counts[r], it->second.count) << "row " << r;
    EXPECT_NEAR(sums[r], it->second.sum, 1e-9 * std::abs(it->second.sum))
        << "row " << r;
    if (bw != nullptr) {
      got.clear();
      bw->TraceInto(static_cast<rid_t>(r), &got);
      EXPECT_EQ(Sorted(got), it->second.rids) << "row " << r;
    }
  }
}

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

  /// Brute-force Q1a (no filters) or Q1b (`mode`/`instr` non-empty) cells
  /// of Q1 group `oid`, summing l_quantity.
  static RefCells BruteQ1ab(rid_t oid, const std::string& mode = "",
                            const std::string& instr = "") {
    const Table& li = db_->lineitem;
    const auto& modes = li.column(tpch::kLShipmode).strings();
    const auto& instrs = li.column(tpch::kLShipinstruct).strings();
    return BruteDrill(
        li, base_->output, oid, tpch::kLQuantity,
        [&](rid_t r) {
          return mode.empty() || (modes[r] == mode && instrs[r] == instr);
        },
        [&](rid_t r) { return YearMonth(li, r); });
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

TEST_F(TraceEquivalenceTest, Q1aIndexedMatchesBruteForce) {
  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    SCOPED_TRACE("group " + std::to_string(oid));
    PlanResult pr;
    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    b.Consuming(q1a).Strategy(TraceStrategy::kIndexed);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), TraceStrategy::kIndexed);
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());
    ExpectMatchesReference(pr, 2, "count_order", "sum_qty", BruteQ1ab(oid),
                           /*lineage=*/true);

    // (year, month) cells within the generated date range; the first
    // (largest) group spans several years.
    if (oid == 0) {
      EXPECT_GT(pr.output.num_rows(), 12u);
    }
    for (size_t g = 0; g < pr.output.num_rows(); ++g) {
      EXPECT_GE(pr.output.column(0).ints()[g], 1992);
      EXPECT_LE(pr.output.column(0).ints()[g], 1998);
      EXPECT_GE(pr.output.column(1).ints()[g], 1);
      EXPECT_LE(pr.output.column(1).ints()[g], 12);
    }
  }
}

TEST_F(TraceEquivalenceTest, Q1bLazyMatchesBruteForce) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    SCOPED_TRACE("group " + std::to_string(oid));
    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(BaseSource(), "lineitem", {oid});
    b.Consuming(q1b).Strategy(TraceStrategy::kLazy);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), TraceStrategy::kLazy);
    PlanResult pr;
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());
    ExpectMatchesReference(pr, 2, "count_order", "sum_qty",
                           BruteQ1ab(oid, "MAIL", "NONE"), /*lineage=*/true);
  }
}

TEST_F(TraceEquivalenceTest, Q1bIndexedAndSkippingMatchBruteForce) {
  ASSERT_GT(skip_base_->skip_dict.num_codes, 0u);
  TraceSource src = TraceSource::FromPlan(*skip_base_, "q1skip");
  for (const std::string mode : {"MAIL", "RAIL"}) {
    for (const std::string instr : {"NONE", "COLLECT COD"}) {
      ConsumingSpec q1b = tpch::MakeQ1b(*db_, mode, instr);
      for (rid_t oid = 0; oid < skip_base_->output.num_rows(); ++oid) {
        SCOPED_TRACE(mode + "/" + instr + " group " + std::to_string(oid));
        const RefCells ref = BruteQ1ab(oid, mode, instr);

        LineageQuery compiled;
        TraceBuilder b = TraceBuilder::Backward(src, "lineitem", {oid});
        b.Consuming(q1b).Strategy(TraceStrategy::kSkipping);
        ASSERT_TRUE(b.Compile(&compiled).ok());
        EXPECT_EQ(compiled.strategy(), TraceStrategy::kSkipping);
        PlanResult pr;
        ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());
        ExpectMatchesReference(pr, 2, "count_order", "sum_qty", ref,
                               /*lineage=*/true);

        PlanResult ix;
        ASSERT_TRUE(TraceBuilder::Backward(BaseSource(), "lineitem", {oid})
                        .Consuming(q1b)
                        .Strategy(TraceStrategy::kIndexed)
                        .Execute(CaptureOptions::Inject(), &ix)
                        .ok());
        ExpectMatchesReference(ix, 2, "count_order", "sum_qty", ref,
                               /*lineage=*/true);
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

TEST_F(TraceEquivalenceTest, Q1cCubeMatchesBruteForce) {
  ASSERT_TRUE(cube_base_->cube.enabled());
  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  TraceSource src = TraceSource::FromPlan(*cube_base_, "q1cube");
  const Table& li = db_->lineitem;
  for (rid_t oid = 0; oid < cube_base_->output.num_rows(); ++oid) {
    SCOPED_TRACE("group " + std::to_string(oid));
    const RefCells ref = BruteDrill(
        li, cube_base_->output, oid, tpch::kLQuantity,
        [](rid_t) { return true; },
        [&](rid_t r) { return std::vector<int64_t>{Tax100(li, r)}; });

    LineageQuery compiled;
    TraceBuilder b = TraceBuilder::Backward(src, "lineitem", {oid});
    b.Consuming(by_tax).Strategy(TraceStrategy::kCube);
    ASSERT_TRUE(b.Compile(&compiled).ok());
    EXPECT_EQ(compiled.strategy(), TraceStrategy::kCube);
    PlanResult pr;
    ASSERT_TRUE(compiled.Execute(CaptureOptions::Inject(), &pr).ok());
    ExpectMatchesReference(pr, 1, "cnt", "sum_qty", ref, /*lineage=*/false);

    // The indexed drill-down over the same group agrees, lineage included.
    PlanResult ix;
    ASSERT_TRUE(TraceBuilder::Backward(BaseSource(), "lineitem", {oid})
                    .Consuming(by_tax)
                    .Strategy(TraceStrategy::kIndexed)
                    .Execute(CaptureOptions::Inject(), &ix)
                    .ok());
    ExpectMatchesReference(ix, 1, "cnt", "sum_qty", ref, /*lineage=*/true);
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

/// COUNT(*) per carrier over 10k ontime rows as one SpjaBlock, with the
/// delay-bin cube pushed down.
PlanResult CarrierDelayCube(const Table& flights) {
  SPJAQuery q;
  q.fact = &flights;
  q.fact_name = "ontime";
  q.group_by = {ColRef::Fact(ontime::kCarrier)};
  q.aggs = {AggSpec::Count("cnt")};
  SPJAPushdown push;
  push.cube_cols = {ontime::kDelayBin};
  push.cube_aggs = {AggSpec::Count("cnt")};
  PlanBuilder b;
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.SpjaBlock(std::move(q), std::move(push)), &plan).ok());
  PlanResult pr;
  SMOKE_CHECK(ExecutePlan(plan, CaptureOptions::Inject(), &pr).ok());
  return pr;
}

TEST(CubeStrategyTest, TracesOnlyTheFactRelation) {
  const Table flights = ontime::Generate(10000, 5);
  const PlanResult cube = CarrierDelayCube(flights);
  const TraceSource src = TraceSource::FromPlan(cube, "by_carrier");
  auto drill = [&](const std::string& relation, TraceStrategy strategy,
                   PlanResult* out) {
    return TraceBuilder::Backward(src, relation, {0})
        .GroupBy(GroupExpr::Raw(ontime::kDelayBin, "d"))
        .Agg(AggSpec::Count("cnt"))
        .Strategy(strategy)
        .Execute(CaptureOptions::None(), out);
  };
  PlanResult pr;
  EXPECT_EQ(drill("no_such_relation", TraceStrategy::kIndexed, &pr).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(drill("no_such_relation", TraceStrategy::kCube, &pr).code(),
            Status::Code::kInvalidArgument);

  // On the fact relation the cube answers the brute-force count.
  ASSERT_TRUE(drill("ontime", TraceStrategy::kCube, &pr).ok());
  const auto& carrier = flights.column(ontime::kCarrier).ints();
  const auto& delay = flights.column(ontime::kDelayBin).ints();
  const int64_t bar = cube.output.column(0).ints()[0];
  std::map<int64_t, int64_t> ref;
  for (size_t r = 0; r < flights.num_rows(); ++r) {
    if (carrier[r] == bar) ++ref[delay[r]];
  }
  std::map<int64_t, int64_t> got;
  for (size_t r = 0; r < pr.output.num_rows(); ++r) {
    got[pr.output.column(0).ints()[r]] += pr.output.column("cnt").ints()[r];
  }
  EXPECT_EQ(got, ref);
}

TEST(CubeStrategyTest, RejectsKeysThatMergeCubeCells) {
  const Table flights = ontime::Generate(10000, 5);
  const PlanResult cube = CarrierDelayCube(flights);
  auto by_year = [&](TraceStrategy strategy, PlanResult* out) {
    return TraceBuilder::Backward(TraceSource::FromPlan(cube, "by_carrier"),
                                  "ontime", {0})
        .GroupBy(GroupExpr::Year(ontime::kDelayBin, "d"))
        .Agg(AggSpec::Count("cnt"))
        .Strategy(strategy)
        .Execute(CaptureOptions::None(), out);
  };
  // Every delay bin lies in year 0: one merged group, as the index says.
  PlanResult ix;
  ASSERT_TRUE(by_year(TraceStrategy::kIndexed, &ix).ok());
  EXPECT_EQ(ix.output.num_rows(), 1u);
  // The cube cannot merge its per-bin cells, so it refuses the key.
  PlanResult cb;
  EXPECT_EQ(by_year(TraceStrategy::kCube, &cb).code(),
            Status::Code::kInvalidArgument);
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

TEST_F(TraceEquivalenceTest, Q1cChainMatchesBruteForceUnderEveryStrategy) {
  // Hop 1 (Q1b) under each strategy that captures fine-grained lineage;
  // hop 2 (Q1c) always consumes the retained hop-1 plan's composed lineage.
  const std::string mode = "SHIP", instr = "COLLECT COD";
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, mode, instr);
  ConsumingSpec q1c = tpch::MakeQ1c(*db_, mode, instr);
  const rid_t oid = 0;
  const RefCells q1b_ref = BruteQ1ab(oid, mode, instr);
  if (q1b_ref.empty()) GTEST_SKIP();
  const Table& li = db_->lineitem;

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
    ExpectMatchesReference(hop1, 2, "count_order", "sum_qty", q1b_ref,
                           /*lineage=*/true);

    // The chain: trace backward through the retained hop-1 plan from its
    // first (year, month) cell, adding l_tax to the grouping.
    const std::vector<int64_t> cell = KeyOfRow(hop1.output, 2, 0);
    const std::vector<rid_t>& members = q1b_ref.at(cell).rids;
    RefCells q1c_ref;
    for (rid_t r : members) {
      RefCell& rc = q1c_ref[{cell[0], cell[1], Tax100(li, r)}];
      ++rc.count;
      rc.sum += li.column(tpch::kLQuantity).doubles()[r];
      rc.rids.push_back(r);
    }
    PlanResult hop2;
    TraceBuilder b2 = TraceBuilder::Backward(
        TraceSource::FromPlan(hop1, "q1b"), "lineitem", {0});
    b2.Consuming(q1c);
    ASSERT_TRUE(b2.Execute(CaptureOptions::Inject(), &hop2).ok());
    ExpectMatchesReference(hop2, 3, "count_order", "sum_qty", q1c_ref,
                           /*lineage=*/true);
    // Q1c's l_tax (x100) keys lie in [0, 8].
    for (size_t g = 0; g < hop2.output.num_rows(); ++g) {
      EXPECT_GE(hop2.output.column(2).ints()[g], 0);
      EXPECT_LE(hop2.output.column(2).ints()[g], 8);
    }
  }
}

TEST_F(TraceEquivalenceTest, ExplainNamesTheAggregateFusion) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  LineageQuery fused;
  ASSERT_TRUE(TraceBuilder::Backward(BaseSource(), "lineitem", {0})
                  .Consuming(q1b)
                  .Strategy(TraceStrategy::kIndexed)
                  .Compile(&fused)
                  .ok());
  EXPECT_TRUE(fused.explain().HasRule("push_select_into_trace"));
  EXPECT_TRUE(fused.explain().HasRule("fuse_trace_aggregate"));
  // One aggregating trace node over the relation scan.
  EXPECT_EQ(fused.plan().num_nodes(), 2u);
  const std::string text = fused.explain().ToString();
  EXPECT_NE(text.find("fuse_trace_aggregate @"), std::string::npos) << text;
  EXPECT_NE(text.find("+aggregate]"), std::string::npos) << text;
  EXPECT_EQ(text.find("group_by ["), std::string::npos) << text;

  // Without the rewriter the literal chain stays, and says so.
  LineageQuery literal;
  ASSERT_TRUE(TraceBuilder::Backward(BaseSource(), "lineitem", {0})
                  .Consuming(q1b)
                  .Strategy(TraceStrategy::kIndexed)
                  .Optimize(false)
                  .Compile(&literal)
                  .ok());
  EXPECT_TRUE(literal.explain().rules.empty());
  const std::string plain = literal.explain().plan_text;
  EXPECT_EQ(plain.find("+aggregate"), std::string::npos) << plain;
  for (const char* node : {"group_by [", "derive [", "select [", "trace ["}) {
    EXPECT_NE(plain.find(node), std::string::npos) << node << "\n" << plain;
  }
}

TEST_F(TraceEquivalenceTest, TypeMismatchedFilterIsAStatusEitherWay) {
  // l_shipdate is int64; a float64 predicate on it used to abort inside the
  // selection kernel when the optimizer (which validates) was off.
  for (bool optimize : {true, false}) {
    SCOPED_TRACE(optimize ? "optimizer on" : "optimizer off");
    TraceBuilder b = TraceBuilder::Backward(BaseSource(), "lineitem", {0});
    b.Filter(Predicate::Double(tpch::kLShipdate, CmpOp::kLt, 3.0))
        .Agg(AggSpec::Count("n"))
        .Strategy(TraceStrategy::kIndexed)
        .Optimize(optimize);
    LineageQuery q;
    Status st = b.Compile(&q);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    PlanResult pr;
    st = b.Execute(CaptureOptions::None(), &pr);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
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

  Table rows(lineitem->schema());
  for (rid_t r : rids) rows.AppendRowFrom(*lineitem, r);
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

// Lineage that names a rid outside its relation (corrupt or hand-built)
// fails the trace with InvalidArgument under every capture mode, dedup
// setting and strategy — before anything indexes by that rid, including the
// captured trace's forward fragment.
TEST(LineageBoundsTest, OutOfRangeLineageRidIsAStatusUnderCapture) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 3; ++i) t.AppendRow({i});
  PlanResult src;
  src.output = Table(s);
  src.output.AppendRow({int64_t{0}});
  TableLineage& tl = src.lineage.AddInput("t", &t);
  RidIndex bw(1);
  bw.Append(0, 1);
  bw.Append(0, 100000);
  tl.backward = LineageIndex::FromIndex(std::move(bw));
  src.lineage.set_output_cardinality(1);
  // A skip index over k with the same bad rid in the k = 1 partition.
  src.skip_dict = BuildDictionary(t, {0});
  src.applied_pushdown.skip_cols = {0};
  src.skip_index.Reset(1, src.skip_dict.num_codes);
  const uint32_t code = src.skip_dict.CodeForString("1");
  ASSERT_NE(code, UINT32_MAX);
  src.skip_index.Append(0, code, 1);
  src.skip_index.Append(0, code, 100000);

  for (const CaptureOptions& opts :
       {CaptureOptions::None(), CaptureOptions::Inject()}) {
    SCOPED_TRACE(opts.mode == CaptureMode::kNone ? "none" : "inject");
    for (bool dedup : {false, true}) {
      PlanResult pr;
      const Status st =
          TraceBuilder::Backward(TraceSource::FromPlan(src), "t", {0})
              .Strategy(TraceStrategy::kIndexed)
              .Dedup(dedup)
              .Execute(opts, &pr);
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    }
    PlanResult pr;
    TraceBuilder skip =
        TraceBuilder::Backward(TraceSource::FromPlan(src), "t", {0});
    skip.Filter(Predicate::Int(0, CmpOp::kEq, 1))
        .Strategy(TraceStrategy::kSkipping);
    const Status st = skip.Execute(opts, &pr);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// The captured trace's forward fragment: 1:1 when the traced rids are
// duplicate-free, with an overflow list per rid that repeats; frozen into
// the sparse form when the trace reaches few rows. Both answer forward
// traces and ThenForward chains like a brute-force scan.
// ---------------------------------------------------------------------------

TEST(TraceFragmentTest, ForwardFragmentIsOneToOneUnlessARidRepeats) {
  Schema fs;
  fs.AddField("id", DataType::kInt64);
  fs.AddField("k", DataType::kInt64);
  fs.AddField("b", DataType::kInt64);
  Table fact(fs);
  for (int64_t i = 0; i < 300; ++i) fact.AppendRow({i, (i * 7) % 6, i % 5});
  Schema ds;
  ds.AddField("d_k", DataType::kInt64);
  ds.AddField("d_c", DataType::kInt64);
  Table dim(ds);
  for (int64_t k = 0; k < 6; ++k) {
    dim.AppendRow({k, int64_t{0}});
    dim.AppendRow({k, int64_t{1}});
  }

  // by_k: dim ⋈ fact on d_k = k, GROUP BY k — every fact row joins two dim
  // rows, so a non-deduplicating backward trace repeats each rid.
  PlanResult by_k;
  {
    PlanBuilder b;
    JoinSpec join;
    join.left_key_name = "d_k";
    join.right_key_name = "k";
    int node = b.HashJoin(b.Scan(&dim, "dim"), b.Scan(&fact, "fact"), join);
    GroupBySpec spec;
    spec.key_names = {"k"};
    spec.aggs = {AggSpec::Count("n")};
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(b.GroupBy(node, spec), &plan).ok());
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &by_k).ok());
  }
  // by_b: fact GROUP BY b, the source of the forward probes.
  PlanResult by_b;
  {
    PlanBuilder b;
    GroupBySpec spec;
    spec.key_names = {"b"};
    spec.aggs = {AggSpec::Count("n")};
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(b.GroupBy(b.Scan(&fact, "fact"), spec), &plan).ok());
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &by_b).ok());
  }
  const auto& fact_b = fact.column(2).ints();

  for (bool dedup : {true, false}) {
    SCOPED_TRACE(dedup ? "dedup" : "witnesses");
    PlanResult tr;
    ASSERT_TRUE(TraceBuilder::Backward(TraceSource::FromPlan(by_k), "fact",
                                       {0, 2})
                    .Dedup(dedup)
                    .Execute(CaptureOptions::Inject(), &tr)
                    .ok());
    std::vector<rid_t> rids;
    Table rows;
    ASSERT_TRUE(SplitTraceRows(tr.output, &rids, &rows).ok());
    ASSERT_FALSE(rids.empty());
    const int fi = tr.lineage.FindInput("fact");
    ASSERT_GE(fi, 0);
    const LineageIndex& fw = tr.lineage.input(static_cast<size_t>(fi)).forward;
    // Two of six groups reach a third of the fact rows: frozen sparse,
    // with an overflow list per repeated rid.
    EXPECT_EQ(fw.kind(), LineageIndex::Kind::kSparseArray);
    EXPECT_EQ(fw.IsOneToOne(), dedup);
    EXPECT_EQ(fw.size(), fact.num_rows());
    EXPECT_TRUE(testing::AreInverse(
        tr.lineage.input(static_cast<size_t>(fi)).backward, fw));

    const TraceSource traced = TraceSource::FromPlan(tr, "traced");
    const auto& b_keys = by_b.output.column(0).ints();
    for (rid_t j = 0; j < b_keys.size(); ++j) {
      // Brute force: the trace's output positions whose fact row has b_j.
      std::vector<rid_t> want;
      for (rid_t i = 0; i < rids.size(); ++i) {
        if (fact_b[rids[i]] == b_keys[j]) want.push_back(i);
      }
      std::vector<rid_t> probe;
      for (rid_t r = 0; r < fact.num_rows(); ++r) {
        if (fact_b[r] == b_keys[j]) probe.push_back(r);
      }
      PlanResult fwd;
      ASSERT_TRUE(TraceBuilder::Forward(traced, "fact", probe)
                      .Dedup(true)
                      .Execute(CaptureOptions::None(), &fwd)
                      .ok());
      std::vector<rid_t> got;
      ASSERT_TRUE(SplitTraceRows(fwd.output, &got, &rows).ok());
      EXPECT_EQ(Sorted(got), want) << "forward from b group " << j;

      PlanResult chain;
      ASSERT_TRUE(TraceBuilder::Backward(TraceSource::FromPlan(by_b), "fact",
                                         {j})
                      .ThenForward(traced)
                      .Execute(CaptureOptions::None(), &chain)
                      .ok());
      ASSERT_TRUE(SplitTraceRows(chain.output, &got, &rows).ok());
      EXPECT_EQ(Sorted(got), want) << "chain from b group " << j;
    }
  }
}

// A trace over a trace result's rows carries exactly one __trace_rid, its
// own; the result's rid column is renamed __trace_rid_1. Name-based clauses
// on __trace_rid bind the new column (output positions of the result), not
// the result's fact rids.
TEST(TraceFragmentTest, TraceOverATraceResultHasOneTraceRidColumn) {
  Schema fs;
  fs.AddField("id", DataType::kInt64);
  fs.AddField("b", DataType::kInt64);
  Table fact(fs);
  for (int64_t i = 0; i < 60; ++i) fact.AppendRow({i, i % 4});
  auto group_by_b = [&fact](PlanResult* out) {
    PlanBuilder b;
    GroupBySpec spec;
    spec.key_names = {"b"};
    spec.aggs = {AggSpec::Count("n")};
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(b.GroupBy(b.Scan(&fact, "fact"), spec), &plan).ok());
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), out).ok());
  };
  PlanResult by_b;
  group_by_b(&by_b);
  // The traced result: the fact rows of b groups 1 and 3, in trace order.
  PlanResult tr;
  ASSERT_TRUE(TraceBuilder::Backward(TraceSource::FromPlan(by_b), "fact",
                                     {1, 3})
                  .Execute(CaptureOptions::Inject(), &tr)
                  .ok());
  std::vector<rid_t> tr_rids;
  Table tr_rows;
  ASSERT_TRUE(SplitTraceRows(tr.output, &tr_rids, &tr_rows).ok());
  const TraceSource traced = TraceSource::FromPlan(tr, "traced");
  const auto& fact_b = fact.column(1).ints();
  const auto& b_keys = by_b.output.column(0).ints();

  for (rid_t j = 0; j < b_keys.size(); ++j) {
    SCOPED_TRACE("b group " + std::to_string(j));
    // Positions of the traced result holding a row of b group j, and the
    // ones a filter __trace_rid < 20 keeps.
    std::vector<rid_t> want, kept;
    for (rid_t i = 0; i < tr_rids.size(); ++i) {
      if (fact_b[tr_rids[i]] != b_keys[j]) continue;
      want.push_back(i);
      if (i < 20) kept.push_back(i);
    }

    PlanResult chain;
    ASSERT_TRUE(TraceBuilder::Backward(TraceSource::FromPlan(by_b), "fact",
                                       {j})
                    .ThenForward(traced)
                    .Execute(CaptureOptions::None(), &chain)
                    .ok());
    const Schema& s = chain.output.schema();
    int named = 0;
    for (const Field& f : s.fields()) named += f.name == kTraceRidColumn;
    EXPECT_EQ(named, 1);
    EXPECT_EQ(s.IndexOf(kTraceRidColumn),
              static_cast<int>(s.num_fields()) - 1);
    ASSERT_EQ(s.IndexOf("__trace_rid_1"),
              static_cast<int>(s.num_fields()) - 2);
    EXPECT_EQ(Sorted(chain.output.column(kTraceRidColumn).ints()), want);
    // The renamed column still holds the result's own (fact) rids.
    for (size_t r = 0; r < chain.output.num_rows(); ++r) {
      EXPECT_EQ(chain.output.column("__trace_rid_1").ints()[r],
                tr_rids[chain.output.column(kTraceRidColumn).ints()[r]]);
    }

    PlanResult filtered;
    ASSERT_TRUE(TraceBuilder::Backward(TraceSource::FromPlan(by_b), "fact",
                                       {j})
                    .ThenForward(traced)
                    .Filter(Predicate::Int(kTraceRidColumn, CmpOp::kLt, 20))
                    .Execute(CaptureOptions::None(), &filtered)
                    .ok());
    EXPECT_EQ(Sorted(filtered.output.column(kTraceRidColumn).ints()), kept);

    PlanResult grouped;
    ASSERT_TRUE(TraceBuilder::Backward(TraceSource::FromPlan(by_b), "fact",
                                       {j})
                    .ThenForward(traced)
                    .GroupBy(GroupExpr::Raw(kTraceRidColumn, "pos"))
                    .Agg(AggSpec::Count("n"))
                    .Execute(CaptureOptions::None(), &grouped)
                    .ok());
    EXPECT_EQ(Sorted(grouped.output.column("pos").ints()), want);
  }
}

}  // namespace
}  // namespace smoke
