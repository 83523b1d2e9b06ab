#include "core/smoke_engine.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/tpch.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

class SmokeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.CreateTable("zipf", MakeZipfTable(5000, 10, 1.0)).ok());
    ASSERT_TRUE(engine_.GetTable("zipf", &zipf_).ok());
    query_.fact = zipf_;
    query_.fact_name = "zipf";
    query_.group_by = {ColRef::Fact(zipf_table::kZ)};
    query_.aggs = {AggSpec::Count("cnt"),
                   AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
  }

  SmokeEngine engine_;
  const Table* zipf_ = nullptr;
  SPJAQuery query_;
};

TEST_F(SmokeEngineTest, CreateTableRejectsDuplicates) {
  EXPECT_FALSE(engine_.CreateTable("zipf", MakeZipfTable(10, 2, 0.0)).ok());
}

TEST_F(SmokeEngineTest, ExecuteAndFetch) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(engine_.GetResult("v1", &out).ok());
  EXPECT_EQ(out->num_rows(), 10u);
  EXPECT_FALSE(engine_.ExecuteQuery("v1", query_).ok());  // duplicate name
  EXPECT_FALSE(engine_.GetResult("nope", &out).ok());
}

TEST_F(SmokeEngineTest, BackwardForwardRoundTrip) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  std::vector<rid_t> back;
  ASSERT_TRUE(engine_.Backward("v1", "zipf", {0}, &back).ok());
  EXPECT_GT(back.size(), 0u);
  // Every backward rid forward-traces to output 0.
  TraceResult fwd;
  ASSERT_TRUE(engine_.TraceForward("v1", "zipf", {back[0]}, &fwd).ok());
  ASSERT_EQ(fwd.rids.size(), 1u);
  EXPECT_EQ(fwd.rids[0], 0u);
}

TEST_F(SmokeEngineTest, TraceBackwardMaterializesRows) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  TraceResult trace;
  ASSERT_TRUE(engine_.TraceBackward("v1", "zipf", {1}, &trace).ok());
  const Table& rows = trace.rows;
  EXPECT_GT(rows.num_rows(), 0u);
  EXPECT_EQ(rows.num_columns(), zipf_->num_columns());
  // All rows carry the group's key.
  const Table* out = nullptr;
  ASSERT_TRUE(engine_.GetResult("v1", &out).ok());
  int64_t key = out->column(0).ints()[1];
  for (int64_t z : rows.column(1).ints()) EXPECT_EQ(z, key);
}

TEST_F(SmokeEngineTest, ErrorsOnOutOfRange) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  std::vector<rid_t> rids;
  EXPECT_FALSE(engine_.Backward("v1", "zipf", {99999}, &rids).ok());
  TraceResult tr;
  EXPECT_FALSE(engine_.TraceForward("v1", "zipf", {99999999}, &tr).ok());
  EXPECT_FALSE(engine_.Backward("v1", "unknown_rel", {0}, &rids).ok());
  EXPECT_FALSE(engine_.Backward("unknown_query", "zipf", {0}, &rids).ok());
}

TEST_F(SmokeEngineTest, WorkloadPruningIsEnforced) {
  Workload w;
  w.needs_forward = false;  // only backward queries declared
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_, CaptureMode::kInject, &w).ok());
  std::vector<rid_t> rids;
  EXPECT_TRUE(engine_.Backward("v1", "zipf", {0}, &rids).ok());
  TraceResult tr;
  EXPECT_FALSE(engine_.TraceForward("v1", "zipf", {0}, &tr).ok());
}

TEST_F(SmokeEngineTest, PhysicalModesRejected) {
  EXPECT_EQ(engine_.ExecuteQuery("v1", query_, CaptureMode::kPhysBdb).code(),
            Status::Code::kUnsupported);
}

TEST_F(SmokeEngineTest, ConsumingQueryAndChain) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  // Drill into group 0 by the id column (raw int key).
  ConsumingSpec spec;
  spec.group_by = {GroupExpr::Raw(zipf_table::kZ, "z")};
  spec.aggs = {AggSpec::Count("cnt")};
  TraceSource v1_src;
  ASSERT_TRUE(engine_.MakeTraceSource("v1", &v1_src).ok());
  TraceBuilder drill_query =
      TraceBuilder::Backward(std::move(v1_src), "zipf", {0});
  drill_query.Consuming(spec);
  ASSERT_TRUE(engine_.ExecuteTraceQuery("drill", drill_query).ok());
  const Table* drill = nullptr;
  ASSERT_TRUE(engine_.GetResult("drill", &drill).ok());
  ASSERT_EQ(drill->num_rows(), 1u);  // group 0 has a single z value
  // Chain one more level: the retained consuming result traces like any
  // other plan, so the chained drill is just another TraceBuilder query.
  ConsumingSpec spec2;
  spec2.group_by = {GroupExpr::Raw(zipf_table::kId, "id")};
  spec2.aggs = {AggSpec::Count("cnt")};
  TraceSource drill_src;
  ASSERT_TRUE(engine_.MakeTraceSource("drill", &drill_src).ok());
  TraceBuilder drill2_query =
      TraceBuilder::Backward(std::move(drill_src), "zipf", {0});
  drill2_query.Consuming(spec2);
  ASSERT_TRUE(engine_.ExecuteTraceQuery("drill2", drill2_query).ok());
  const Table* drill2 = nullptr;
  ASSERT_TRUE(engine_.GetResult("drill2", &drill2).ok());
  // One output row per input row of group 0 (id is unique).
  EXPECT_EQ(drill2->num_rows(),
            static_cast<size_t>(drill->column(1).ints()[0]));
}

// SPJA blocks the fused kernel cannot run are plan errors, not aborts: more
// than SPJAQuery::kMaxDims dimensions, or a pk / fk column that is not
// int64.
TEST_F(SmokeEngineTest, SpjaBlockValidationRejectsUnrunnableJoins) {
  Schema ds;
  ds.AddField("pk", DataType::kInt64);
  ds.AddField("name", DataType::kString);
  ds.AddField("w", DataType::kFloat64);
  Table dim(ds);
  for (int64_t k = 1; k <= 10; ++k) {
    dim.AppendRow({k, "d" + std::to_string(k), static_cast<double>(k)});
  }
  auto with_dims = [&](size_t count, int pk_col, ColRef fk) {
    SPJAQuery q = query_;
    for (size_t j = 0; j < count; ++j) {
      SPJADim d;
      d.table = &dim;
      d.name = "dim" + std::to_string(j);
      d.pk_col = pk_col;
      d.fk = fk;
      q.dims.push_back(d);
    }
    return q;
  };
  const ColRef fact_z = ColRef::Fact(zipf_table::kZ);
  auto expect_invalid = [&](const SPJAQuery& q, const std::string& name,
                            const std::string& says) {
    Status st = engine_.ExecuteQuery(name, q, CaptureOptions::Inject());
    ASSERT_FALSE(st.ok()) << name;
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(says), std::string::npos) << st.ToString();
  };

  // kMaxDims dimensions run; one more is rejected.
  ASSERT_TRUE(engine_
                  .ExecuteQuery("max_dims",
                                with_dims(SPJAQuery::kMaxDims, 0, fact_z),
                                CaptureOptions::Inject())
                  .ok());
  expect_invalid(with_dims(SPJAQuery::kMaxDims + 1, 0, fact_z), "too_many",
                 "more than 8");
  // A string pk, a float64 fk (from the fact and from a joined dimension).
  expect_invalid(with_dims(1, 1, fact_z), "string_pk", "dimension pk");
  expect_invalid(with_dims(1, 0, ColRef::Fact(zipf_table::kV)), "double_fk",
                 "dimension fk");
  SPJAQuery chained = with_dims(2, 0, fact_z);
  chained.dims[1].fk = ColRef::Dim(0, 2);
  expect_invalid(chained, "double_dim_fk", "dimension fk");
  const Table* out = nullptr;
  EXPECT_FALSE(engine_.GetResult("too_many", &out).ok());  // nothing retained
}

TEST_F(SmokeEngineTest, DropResult) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  EXPECT_EQ(engine_.QueryNames().size(), 1u);
  ASSERT_TRUE(engine_.DropResult("v1").ok());
  EXPECT_TRUE(engine_.QueryNames().empty());
  EXPECT_FALSE(engine_.DropResult("v1").ok());
}

TEST_F(SmokeEngineTest, ReplaceAndDropTableRefusalsNameBorrower) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());

  Status st = engine_.ReplaceTable("zipf", MakeZipfTable(10, 2, 0.0));
  ASSERT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("'v1'"), std::string::npos) << st.message();

  st = engine_.DropTable("zipf");
  ASSERT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("'v1'"), std::string::npos) << st.message();

  // Dropping the named borrower unblocks both paths.
  ASSERT_TRUE(engine_.DropResult("v1").ok());
  EXPECT_TRUE(engine_.ReplaceTable("zipf", MakeZipfTable(10, 2, 0.0)).ok());
  EXPECT_TRUE(engine_.DropTable("zipf").ok());
}

TEST_F(SmokeEngineTest, DropResultRefusalNamesBorrowingTrace) {
  ASSERT_TRUE(engine_.ExecuteQuery("v1", query_).ok());
  TraceSource src;
  ASSERT_TRUE(engine_.MakeTraceSource("v1", &src).ok());
  ASSERT_TRUE(engine_
                  .ExecuteTraceQuery("fwd",
                                     TraceBuilder::Forward(src, "zipf", {0}))
                  .ok());

  Status st = engine_.DropResult("v1");
  ASSERT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("'fwd'"), std::string::npos) << st.message();

  ASSERT_TRUE(engine_.DropResult("fwd").ok());
  EXPECT_TRUE(engine_.DropResult("v1").ok());
}

TEST_F(SmokeEngineTest, TpchEndToEnd) {
  tpch::Database db = tpch::Generate(0.005);
  SmokeEngine eng;
  ASSERT_TRUE(eng.CreateTable("lineitem", std::move(db.lineitem)).ok());
  const Table* lineitem = nullptr;
  ASSERT_TRUE(eng.GetTable("lineitem", &lineitem).ok());
  tpch::Database view;  // only lineitem needed for Q1
  SPJAQuery q1;
  q1.fact = lineitem;
  q1.fact_name = "lineitem";
  q1.fact_filters = {Predicate::Int(tpch::kLShipdate, CmpOp::kLe, 19980902)};
  q1.group_by = {ColRef::Fact(tpch::kLReturnflag),
                 ColRef::Fact(tpch::kLLinestatus)};
  q1.aggs = {AggSpec::Count("count_order")};
  ASSERT_TRUE(eng.ExecuteQuery("q1", q1).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(eng.GetResult("q1", &out).ok());
  EXPECT_EQ(out->num_rows(), 4u);
}

}  // namespace
}  // namespace smoke

namespace smoke {
namespace {

class LinkedBrushingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        engine_.CreateTable("x", MakeZipfTable(2000, 6, 1.0, 71)).ok());
    const Table* x = nullptr;
    ASSERT_TRUE(engine_.GetTable("x", &x).ok());
    // V1 groups by z; V2 groups by id % — approximate with z as well but
    // different aggregation so outputs differ in shape.
    SPJAQuery v1;
    v1.fact = x;
    v1.fact_name = "x";
    v1.group_by = {ColRef::Fact(zipf_table::kZ)};
    v1.aggs = {AggSpec::Count("n")};
    ASSERT_TRUE(engine_.ExecuteQuery("v1", v1).ok());
    SPJAQuery v2;
    v2.fact = x;
    v2.fact_name = "x";
    v2.group_by = {ColRef::Fact(zipf_table::kId)};  // one bar per row
    v2.aggs = {AggSpec::Count("n")};
    ASSERT_TRUE(engine_.ExecuteQuery("v2", v2).ok());
  }
  SmokeEngine engine_;
};

TEST_F(LinkedBrushingTest, TraceAcrossMatchesManualComposition) {
  std::vector<rid_t> linked;
  ASSERT_TRUE(
      testing::TraceAcross(engine_, "v1", {0, 1}, "x", "v2", &linked).ok());
  TraceResult shared;
  ASSERT_TRUE(engine_.TraceBackward("v1", "x", {0, 1}, &shared).ok());
  TraceResult manual;
  ASSERT_TRUE(engine_.TraceForward("v2", "x", shared.rids, &manual).ok());
  EXPECT_EQ(linked, manual.rids);
  // v2 has one bar per input row.
  EXPECT_EQ(linked.size(), shared.rids.size());
}

TEST_F(LinkedBrushingTest, UnknownQueryFails) {
  std::vector<rid_t> linked;
  EXPECT_FALSE(
      testing::TraceAcross(engine_, "v1", {0}, "x", "nope", &linked).ok());
  EXPECT_FALSE(
      testing::TraceAcross(engine_, "nope", {0}, "x", "v2", &linked).ok());
}

TEST_F(LinkedBrushingTest, BrushAllBarsCoversAllOfV2) {
  const Table* v1 = nullptr;
  ASSERT_TRUE(engine_.GetResult("v1", &v1).ok());
  std::vector<rid_t> all_bars;
  for (rid_t g = 0; g < v1->num_rows(); ++g) all_bars.push_back(g);
  std::vector<rid_t> linked;
  ASSERT_TRUE(
      testing::TraceAcross(engine_, "v1", all_bars, "x", "v2", &linked).ok());
  EXPECT_EQ(linked.size(), 2000u);
}

}  // namespace
}  // namespace smoke
