// The incremental capture & live refresh subsystem (src/refresh/): plan
// delta passes vs. full recompute, new-group vs. updated-group maintenance,
// dim-side append fallback with scoped rebuild, encoded-index append, the
// engine AppendRows refusal/maintenance contract, and serve-layer version
// reuse — plus the re-homed single-kernel RefreshAppend/ForwardPropagate.
#include "refresh/refresh.h"

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "serve/serve_core.h"
#include "test_util.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

using testing::Edges;
using testing::GroupedRows;
using testing::RowSet;

GroupBySpec Spec() {
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v"),
               AggSpec::Min(ScalarExpr::Col(zipf_table::kV), "min_v"),
               AggSpec::Avg(ScalarExpr::Col(zipf_table::kV), "avg_v")};
  return spec;
}

CaptureOptions RetainOpts(LineageCodec codec = LineageCodec::kRaw) {
  CaptureOptions opts = CaptureOptions::Inject();
  opts.retain_refresh_state = true;
  opts.lineage_codec = codec;
  return opts;
}

/// Expected state after all appends: the same plan executed from scratch
/// over the full table in a throwaway engine.
PlanResult Reference(const Table& full, LogicalPlan (*maker)(const Table*)) {
  PlanResult pr;
  SMOKE_CHECK(ExecutePlan(maker(&full), CaptureOptions::Inject(), &pr).ok());
  return pr;
}

LogicalPlan GroupPlan(const Table* t) {
  PlanBuilder b;
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(b.Scan(t, "zipf"), Spec()), &plan).ok());
  return plan;
}

LogicalPlan SelectProjectPlan(const Table* t) {
  PlanBuilder b;
  int sel = b.Select(b.Scan(t, "zipf"),
                     {Predicate::Double(zipf_table::kV, CmpOp::kLt, 60.0)});
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.Project(sel, {zipf_table::kZ, zipf_table::kV}),
                      &plan)
                  .ok());
  return plan;
}

void ExpectSameLineage(const PlanResult& got, const PlanResult& want) {
  ASSERT_EQ(got.lineage.num_inputs(), want.lineage.num_inputs());
  for (size_t i = 0; i < want.lineage.num_inputs(); ++i) {
    const TableLineage& g = got.lineage.input(i);
    const TableLineage& w = want.lineage.input(i);
    EXPECT_EQ(g.table_name, w.table_name);
    EXPECT_EQ(Edges(g.backward), Edges(w.backward)) << g.table_name;
    EXPECT_EQ(Edges(g.forward), Edges(w.forward)) << g.table_name;
  }
}

TEST(RefreshPlanTest, GroupByNewAndUpdatedGroups) {
  SmokeEngine engine;
  // Base data covers groups [1, 4]; the delta hits existing groups AND
  // introduces [5, 8] — both maintenance paths in one batch.
  Table full = MakeZipfTable(600, 4, 1.0, 11);
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(600, 4, 1.0, 11)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  ASSERT_TRUE(engine.ExecutePlan("by_z", GroupPlan(t), RetainOpts()).ok());

  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("by_z", &pr).ok());
  EXPECT_TRUE(pr->refreshable());
  const size_t old_groups = pr->output.num_rows();

  Table delta = MakeZipfTable(250, 8, 0.6, 12);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    full.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  std::vector<RefreshStats> stats;
  ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].incremental);
  EXPECT_EQ(stats[0].target, "by_z");
  EXPECT_EQ(stats[0].delta_rows, 250u);
  EXPECT_GT(stats[0].new_groups, 0u);
  EXPECT_GT(stats[0].groups_touched, stats[0].new_groups);
  EXPECT_EQ(stats[0].output_rows_appended, stats[0].new_groups);
  EXPECT_GT(stats[0].index_bytes_appended, 0u);

  PlanResult want = Reference(full, GroupPlan);
  EXPECT_EQ(pr->output.num_rows(), old_groups + stats[0].new_groups);
  EXPECT_EQ(GroupedRows(pr->output, 1), GroupedRows(want.output, 1));
  // Bit-identical, not just equal as sets of rows: new groups must land at
  // the same output rids a from-scratch run assigns.
  EXPECT_EQ(RowSet(pr->output), RowSet(want.output));
  for (size_t r = 0; r < want.output.num_rows(); ++r) {
    EXPECT_EQ(testing::RowKey(pr->output, static_cast<rid_t>(r)),
              testing::RowKey(want.output, static_cast<rid_t>(r)));
  }
  ExpectSameLineage(*pr, want);
}

TEST(RefreshPlanTest, SelectProjectChainAppendsInPlace) {
  SmokeEngine engine;
  Table full = MakeZipfTable(400, 6, 1.0, 21);
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(400, 6, 1.0, 21)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  ASSERT_TRUE(
      engine.ExecutePlan("hot", SelectProjectPlan(t), RetainOpts()).ok());

  // Two batches: the second verifies watermarks advance correctly.
  for (uint64_t round = 0; round < 2; ++round) {
    Table delta = MakeZipfTable(150, 6, 0.8, 22 + round);
    for (size_t r = 0; r < delta.num_rows(); ++r) {
      full.AppendRowFrom(delta, static_cast<rid_t>(r));
    }
    std::vector<RefreshStats> stats;
    ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_TRUE(stats[0].incremental);
    // The delta pass scans only appended ranges (the 150 base rows plus
    // each node's delta output), never the accumulated table.
    EXPECT_GE(stats[0].rows_scanned, 150u);
    EXPECT_LE(stats[0].rows_scanned, 300u);
  }

  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("hot", &pr).ok());
  PlanResult want = Reference(full, SelectProjectPlan);
  for (size_t r = 0; r < want.output.num_rows(); ++r) {
    ASSERT_EQ(testing::RowKey(pr->output, static_cast<rid_t>(r)),
              testing::RowKey(want.output, static_cast<rid_t>(r)));
  }
  ExpectSameLineage(*pr, want);
  // Row-level select keeps 1:1 lineage; sanity-check inversion too.
  const TableLineage& tl = pr->lineage.input(0);
  EXPECT_TRUE(testing::AreInverse(tl.backward, tl.forward));
}

struct JoinTables {
  Table fact;
  Table dim;
};

LogicalPlan JoinGroupPlan(const Table* fact, const Table* dim) {
  PlanBuilder b;
  JoinSpec js;
  js.left_key = 0;             // gids.id
  js.right_key = zipf_table::kZ;
  js.pk_build = true;
  int join = b.HashJoin(b.Scan(dim, "gids"), b.Scan(fact, "zipf"), js);
  GroupBySpec spec;
  spec.keys = {0};  // gids.id — group by the dim key
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(4), "sum_v")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(join, spec), &plan).ok());
  return plan;
}

TEST(RefreshPlanTest, ProbeSideDeltaRefreshesJoin) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(500, 8, 1.0, 31)).ok());
  ASSERT_TRUE(engine.CreateTable("gids", MakeGidsTable(8, 31)).ok());
  const Table* fact = nullptr;
  const Table* dim = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &fact).ok());
  ASSERT_TRUE(engine.GetTable("gids", &dim).ok());
  ASSERT_TRUE(engine
                  .ExecutePlan("per_gid", JoinGroupPlan(fact, dim),
                               RetainOpts())
                  .ok());
  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("per_gid", &pr).ok());
  EXPECT_TRUE(pr->refreshable());

  Table full_fact = *fact;
  Table delta = MakeZipfTable(200, 8, 0.5, 32);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    full_fact.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  std::vector<RefreshStats> stats;
  ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].incremental);

  Table full_dim = *dim;
  PlanResult want;
  ASSERT_TRUE(ExecutePlan(JoinGroupPlan(&full_fact, &full_dim),
                          CaptureOptions::Inject(), &want)
                  .ok());
  for (size_t r = 0; r < want.output.num_rows(); ++r) {
    ASSERT_EQ(testing::RowKey(pr->output, static_cast<rid_t>(r)),
              testing::RowKey(want.output, static_cast<rid_t>(r)));
  }
  ExpectSameLineage(*pr, want);
}

TEST(RefreshPlanTest, DimSideAppendFallsBackToScopedRebuild) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(300, 4, 1.0, 41)).ok());
  ASSERT_TRUE(engine.CreateTable("gids", MakeGidsTable(8, 41)).ok());
  const Table* fact = nullptr;
  const Table* dim = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &fact).ok());
  ASSERT_TRUE(engine.GetTable("gids", &dim).ok());
  ASSERT_TRUE(engine
                  .ExecutePlan("per_gid", JoinGroupPlan(fact, dim),
                               RetainOpts())
                  .ok());

  // Appending to the BUILD side cannot be folded through the cached probe
  // map: the refresh must fall back, say precisely why, and rebuild.
  Table extra(dim->schema());
  extra.AppendRow({int64_t{9}, 900.0});
  Table full_dim = *dim;
  full_dim.AppendRow({int64_t{9}, 900.0});
  std::vector<RefreshStats> stats;
  ASSERT_TRUE(engine.AppendRows("gids", extra, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].incremental);
  EXPECT_NE(stats[0].fallback_reason.find("build side"), std::string::npos)
      << stats[0].fallback_reason;

  // The scoped rebuild still leaves the view exactly right, and the NEXT
  // probe-side delta is maintained incrementally again (re-analysis rebuilt
  // the watermarks and join cache).
  Table full_fact = *fact;
  Table delta = MakeZipfTable(100, 4, 0.5, 42);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    full_fact.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  stats.clear();
  ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].incremental);

  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("per_gid", &pr).ok());
  PlanResult want;
  ASSERT_TRUE(ExecutePlan(JoinGroupPlan(&full_fact, &full_dim),
                          CaptureOptions::Inject(), &want)
                  .ok());
  EXPECT_EQ(RowSet(pr->output), RowSet(want.output));
  ExpectSameLineage(*pr, want);
}

TEST(RefreshPlanTest, EncodedIndexesAppendThroughBuilders) {
  // Retained under the adaptive store codec: the composed indexes are
  // encoded at retention, and the delta pass appends THROUGH the encoded
  // forms (PostingsBuilder/overlay paths) — traces must stay bit-identical
  // to both a raw-codec twin and a from-scratch run.
  SmokeEngine engine;
  Table full = MakeZipfTable(500, 6, 1.0, 51);
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(500, 6, 1.0, 51)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  ASSERT_TRUE(engine
                  .ExecutePlan("by_z", GroupPlan(t),
                               RetainOpts(LineageCodec::kAdaptive))
                  .ok());
  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("by_z", &pr).ok());
  ASSERT_TRUE(pr->refreshable());
  // The retention encode actually produced store-encoded indexes.
  const LineageIndex& bw0 = pr->lineage.input(0).backward;
  EXPECT_TRUE(bw0.kind() == LineageIndex::Kind::kEncodedIndex ||
              bw0.kind() == LineageIndex::Kind::kEncodedArray);

  for (uint64_t round = 0; round < 3; ++round) {
    Table delta = MakeZipfTable(120, 6 + round, 0.7, 52 + round);
    for (size_t r = 0; r < delta.num_rows(); ++r) {
      full.AppendRowFrom(delta, static_cast<rid_t>(r));
    }
    std::vector<RefreshStats> stats;
    ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
    ASSERT_TRUE(stats[0].incremental) << stats[0].fallback_reason;
  }

  PlanResult want = Reference(full, GroupPlan);
  EXPECT_EQ(GroupedRows(pr->output, 1), GroupedRows(want.output, 1));
  ExpectSameLineage(*pr, want);

  // Engine-level traces answer over the refreshed encoded indexes.
  std::vector<rid_t> rids;
  ASSERT_TRUE(engine.Backward("by_z", "zipf", {0}, &rids).ok());
  std::vector<rid_t> want_rids;
  want.lineage.input(0).backward.TraceInto(0, &want_rids);
  std::sort(want_rids.begin(), want_rids.end());
  want_rids.erase(std::unique(want_rids.begin(), want_rids.end()),
                  want_rids.end());
  EXPECT_EQ(testing::Sorted(rids), want_rids);
}

/// fact(k, g): join key into dim(id, w), then a group key.
Table KeyGroupTable(std::initializer_list<std::pair<int64_t, int64_t>> rows) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("g", DataType::kInt64);
  Table t(s);
  for (const auto& [k, g] : rows) t.AppendRow({k, g});
  return t;
}

/// dim ⋈ fact on dim.id = fact.k; the join output is (id, w, k, g).
int DimFactJoin(PlanBuilder* b, const Table* fact, const Table* dim) {
  JoinSpec js;
  js.left_key = 0;
  js.right_key = 0;
  js.pk_build = true;
  return b->HashJoin(b->Scan(dim, "dim"), b->Scan(fact, "fact"), js);
}

/// Groups by the fact's g: a dim row reaches one group per distinct g.
LogicalPlan JoinGroupByFactPlan(const Table* fact, const Table* dim) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {3};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan plan;
  SMOKE_CHECK(
      b.Build(b.GroupBy(DimFactJoin(&b, fact, dim), spec), &plan).ok());
  return plan;
}

/// A select over the join: a dim row reaches one output per fact match.
LogicalPlan JoinSelectPlan(const Table* fact, const Table* dim) {
  PlanBuilder b;
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.Select(DimFactJoin(&b, fact, dim),
                               {Predicate::Int(3, CmpOp::kGe, 0)}),
                      &plan)
                  .ok());
  return plan;
}

// The static dim's composed forward is narrowed to 1:1 (no dim row reaches
// two outputs yet). A delta that gives a dim row its first output keeps it
// 1:1 (raw); one that gives a dim row a second output promotes it — through
// the sorted insert under a group root and the tail extension under a
// select — and the promoted index equals a full re-execution.
TEST(RefreshPlanTest, NarrowedStaticForwardPromotesOnASecondOutput) {
  for (LineageCodec codec : {LineageCodec::kRaw, LineageCodec::kAdaptive}) {
    for (auto maker : {JoinGroupByFactPlan, JoinSelectPlan}) {
      SmokeEngine engine;
      Table dim_rows(KeyGroupTable({{1, 10}, {2, 20}, {3, 30}}));
      ASSERT_TRUE(engine.CreateTable("dim", dim_rows).ok());
      ASSERT_TRUE(
          engine.CreateTable("fact", KeyGroupTable({{1, 10}, {2, 20}})).ok());
      const Table* fact = nullptr;
      const Table* dim = nullptr;
      ASSERT_TRUE(engine.GetTable("fact", &fact).ok());
      ASSERT_TRUE(engine.GetTable("dim", &dim).ok());
      ASSERT_TRUE(
          engine.ExecutePlan("v", maker(fact, dim), RetainOpts(codec)).ok());
      const PlanResult* pr = nullptr;
      ASSERT_TRUE(engine.GetPlanResult("v", &pr).ok());
      ASSERT_TRUE(pr->refreshable()) << pr->refresh->fallback_reason;
      const int di = pr->lineage.FindInput("dim");
      ASSERT_GE(di, 0);
      const LineageIndex& dim_fw =
          pr->lineage.input(static_cast<size_t>(di)).forward;
      EXPECT_TRUE(dim_fw.IsOneToOne());

      Table full_fact = *fact;
      for (const auto& delta : {KeyGroupTable({{3, 30}}),
                                KeyGroupTable({{1, 20}, {2, 20}})}) {
        for (size_t r = 0; r < delta.num_rows(); ++r) {
          full_fact.AppendRowFrom(delta, static_cast<rid_t>(r));
        }
        std::vector<RefreshStats> stats;
        ASSERT_TRUE(engine.AppendRows("fact", delta, &stats).ok());
        ASSERT_EQ(stats.size(), 1u);
        ASSERT_TRUE(stats[0].incremental) << stats[0].fallback_reason;

        PlanResult want;
        ASSERT_TRUE(ExecutePlan(maker(&full_fact, &dim_rows),
                                CaptureOptions::Inject(), &want)
                        .ok());
        EXPECT_EQ(RowSet(pr->output), RowSet(want.output));
        ExpectSameLineage(*pr, want);
        const bool second_output = full_fact.num_rows() > 3;
        // Re-execution freezes a dim row's second output into an overflow
        // list of the sparse form.
        EXPECT_EQ(want.lineage.input(static_cast<size_t>(di)).forward.kind(),
                  second_output ? LineageIndex::Kind::kSparseArray
                                : LineageIndex::Kind::kArray);
        if (second_output) {
          EXPECT_FALSE(dim_fw.IsOneToOne());  // promoted in place
        } else if (codec == LineageCodec::kRaw) {
          EXPECT_EQ(dim_fw.kind(), LineageIndex::Kind::kArray);
        }
      }
    }
  }
}

TEST(RefreshPlanTest, AppendRefusedWhileUnmaintainableBorrowerLive) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(200, 4, 1.0, 61)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());

  // A retained plan WITHOUT refresh state blocks appends, by name.
  ASSERT_TRUE(engine.ExecutePlan("frozen", GroupPlan(t)).ok());
  Table delta = MakeZipfTable(10, 4, 1.0, 62);
  Status st = engine.AppendRows("zipf", delta);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(st.message().find("frozen"), std::string::npos) << st.message();
  ASSERT_TRUE(engine.DropResult("frozen").ok());

  // A retained SPJA query blocks appends too: it is a plan, executed here
  // without refresh state.
  SPJAQuery q;
  q.fact = t;
  q.fact_name = "zipf";
  q.group_by = {ColRef::Fact(zipf_table::kZ)};
  q.aggs = {AggSpec::Count("cnt")};
  ASSERT_TRUE(engine.ExecuteQuery("spja_view", q).ok());
  st = engine.AppendRows("zipf", delta);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(st.message().find("spja_view"), std::string::npos);
  ASSERT_TRUE(engine.DropResult("spja_view").ok());

  // With only a refresh-retained view left, the same append succeeds
  // incrementally.
  ASSERT_TRUE(engine.ExecutePlan("live", GroupPlan(t), RetainOpts()).ok());
  std::vector<RefreshStats> stats;
  ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].incremental);
}

TEST(RefreshPlanTest, EvictedSpjaQueryRebuildsAndStaysWithinBudget) {
  // An SPJA query retained with refresh state is a rebuildable view. Under
  // a tight budget it is evicted; an append rebuilds its indexes, which the
  // store re-registers and evicts again — accounting and lineage agree, and
  // the lazy answers cover the appended rows.
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(400, 4, 1.0, 81)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  SPJAQuery q;
  q.fact = t;
  q.fact_name = "zipf";
  q.group_by = {ColRef::Fact(zipf_table::kZ)};
  q.aggs = {AggSpec::Count("cnt")};
  engine.SetLineageBudget(64);
  ASSERT_TRUE(engine.ExecuteQuery("v", q, RetainOpts()).ok());
  ASSERT_EQ(engine.LineageMemoryStats().num_evicted, 1u);

  std::vector<RefreshStats> stats;
  ASSERT_TRUE(
      engine.AppendRows("zipf", MakeZipfTable(50, 4, 1.0, 82), &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].incremental);
  LineageStoreStats store = engine.LineageMemoryStats();
  EXPECT_EQ(store.num_evicted, 1u);
  EXPECT_LE(store.total_bytes, store.budget_bytes);

  // Reference: the same query over the grown table, indexes resident.
  SmokeEngine ref;
  ASSERT_TRUE(ref.CreateTable("zipf", *t).ok());
  ASSERT_TRUE(ref.GetTable("zipf", &q.fact).ok());
  ASSERT_TRUE(ref.ExecuteQuery("v", q).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(ref.GetResult("v", &out).ok());
  for (rid_t g = 0; g < out->num_rows(); ++g) {
    std::vector<rid_t> want, got;
    ASSERT_TRUE(ref.Backward("v", "zipf", {g}, &want).ok());
    ASSERT_TRUE(engine.Backward("v", "zipf", {g}, &got).ok());
    EXPECT_EQ(got, want) << "group " << g;
  }
}

TEST(RefreshPlanTest, NonRefreshableShapeRebuildsWithReason) {
  // A group-by below the root is outside the refreshability matrix: the
  // engine keeps the view correct via scoped rebuilds and reports why.
  SmokeEngine engine;
  Table full = MakeZipfTable(300, 5, 1.0, 71);
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(300, 5, 1.0, 71)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());

  PlanBuilder b;
  int gb = b.GroupBy(b.Scan(t, "zipf"), Spec());
  int root = b.Select(gb, {Predicate::Int(0, CmpOp::kGe, 1)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());
  ASSERT_TRUE(engine.ExecutePlan("having", plan, RetainOpts()).ok());
  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("having", &pr).ok());
  EXPECT_FALSE(pr->refreshable());

  Table delta = MakeZipfTable(100, 7, 0.6, 72);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    full.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  std::vector<RefreshStats> stats;
  ASSERT_TRUE(engine.AppendRows("zipf", delta, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].incremental);
  EXPECT_NE(stats[0].fallback_reason.find("group-by below the plan root"),
            std::string::npos)
      << stats[0].fallback_reason;

  PlanResult want;
  {
    PlanBuilder rb;
    int rgb = rb.GroupBy(rb.Scan(&full, "zipf"), Spec());
    LogicalPlan rplan;
    ASSERT_TRUE(
        rb.Build(rb.Select(rgb, {Predicate::Int(0, CmpOp::kGe, 1)}), &rplan)
            .ok());
    ASSERT_TRUE(ExecutePlan(rplan, CaptureOptions::Inject(), &want).ok());
  }
  EXPECT_EQ(RowSet(pr->output), RowSet(want.output));
  ExpectSameLineage(*pr, want);
}

// ---- serving layer: incremental snapshot builds ----

LogicalPlan ServeByZ(const Table* t) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(b.Scan(t, "zipf"), spec), &plan).ok());
  return plan;
}

LogicalPlan ServeHotZ(const Table* t) {
  PlanBuilder b;
  int sel = b.Select(b.Scan(t, "zipf"),
                     {Predicate::Double(zipf_table::kV, CmpOp::kLt, 50.0)});
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(sel, spec), &plan).ok());
  return plan;
}

ServeCore::ViewDef ServeDef(LogicalPlan (*maker)(const Table*)) {
  return [maker](const SmokeEngine& engine, LogicalPlan* plan) {
    const Table* t = nullptr;
    SMOKE_RETURN_NOT_OK(engine.GetTable("zipf", &t));
    *plan = maker(t);
    return Status::OK();
  };
}

TEST(ServeRefreshTest, IncrementalSnapshotsReuseRefreshedViews) {
  ServeCore core("zipf");
  Table full = MakeZipfTable(1000, 8, 1.0, 81);
  ASSERT_TRUE(core.CreateTable("zipf", MakeZipfTable(1000, 8, 1.0, 81)).ok());
  ASSERT_TRUE(core.DefineView("by_z", ServeDef(ServeByZ)).ok());
  ASSERT_TRUE(core.DefineView("hot_z", ServeDef(ServeHotZ)).ok());
  ASSERT_TRUE(core.Start().ok());
  EXPECT_EQ(core.CurrentVersion(), 1u);
  EXPECT_TRUE(core.LastRefreshStats().empty());

  // Hold version 1 pinned across the appends: published snapshots must be
  // independent copies, not aliases of the builder's mutating state.
  auto v1 = core.AcquireSnapshot();
  const Table* v1_out = nullptr;
  ASSERT_TRUE(v1.snapshot->engine.GetResult("by_z", &v1_out).ok());
  const auto v1_rows = RowSet(*v1_out);

  for (uint64_t round = 0; round < 3; ++round) {
    Table delta = MakeZipfTable(200, 8 + round, 0.7, 82 + round);
    for (size_t r = 0; r < delta.num_rows(); ++r) {
      full.AppendRowFrom(delta, static_cast<rid_t>(r));
    }
    ASSERT_TRUE(core.AppendRows("zipf", delta).ok());

    // Every view was maintained incrementally — version reuse, no
    // re-execution.
    auto stats = core.LastRefreshStats();
    ASSERT_EQ(stats.size(), 2u);
    for (const RefreshStats& s : stats) {
      EXPECT_TRUE(s.incremental) << s.target << ": " << s.fallback_reason;
      EXPECT_EQ(s.delta_rows, 200u);
    }
  }
  EXPECT_EQ(core.CurrentVersion(), 4u);

  // The published current snapshot answers exactly like a from-scratch run
  // over the accumulated table — output rows AND lineage.
  auto cur = core.AcquireSnapshot();
  for (auto maker : {ServeByZ, ServeHotZ}) {
    const char* name = maker == ServeByZ ? "by_z" : "hot_z";
    const PlanResult* pr = nullptr;
    ASSERT_TRUE(cur.snapshot->engine.GetPlanResult(name, &pr).ok());
    PlanResult want = Reference(full, maker);
    EXPECT_EQ(GroupedRows(pr->output, 1), GroupedRows(want.output, 1))
        << name;
    ExpectSameLineage(*pr, want);
  }
  // The pinned v1 never moved.
  EXPECT_EQ(RowSet(*v1_out), v1_rows);

  // ReplaceTable invalidates the builder; the next append falls back to a
  // full rebuild once, then the re-seeded builder resumes incrementally.
  Table replacement = MakeZipfTable(500, 8, 1.0, 91);
  full = replacement;
  ASSERT_TRUE(core.ReplaceTable("zipf", std::move(replacement)).ok());
  Table delta = MakeZipfTable(100, 8, 0.7, 92);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    full.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  ASSERT_TRUE(core.AppendRows("zipf", delta).ok());
  auto stats = core.LastRefreshStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].incremental && stats[1].incremental)
      << stats[0].fallback_reason;
  auto after = core.AcquireSnapshot();
  const PlanResult* pr = nullptr;
  ASSERT_TRUE(after.snapshot->engine.GetPlanResult("by_z", &pr).ok());
  PlanResult want = Reference(full, ServeByZ);
  EXPECT_EQ(GroupedRows(pr->output, 1), GroupedRows(want.output, 1));
}

// ---- the re-homed single-kernel refresh API ----

TEST(RefreshAppendTest, MatchesFullRecompute) {
  Table t = MakeZipfTable(1000, 8, 1.0, 31);
  auto res = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());

  Table extra = MakeZipfTable(200, 12, 0.5, 32);
  rid_t first_new = static_cast<rid_t>(t.num_rows());
  for (rid_t r = 0; r < extra.num_rows(); ++r) t.AppendRowFrom(extra, r);

  std::vector<rid_t> affected;
  ASSERT_TRUE(RefreshAppend(&res, t, first_new, &affected).ok());
  EXPECT_GT(affected.size(), 0u);

  auto full = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());
  EXPECT_EQ(GroupedRows(res.output, 1), GroupedRows(full.output, 1));
  EXPECT_EQ(Edges(res.lineage.input(0).backward),
            Edges(full.lineage.input(0).backward));
  EXPECT_EQ(Edges(res.lineage.input(0).forward),
            Edges(full.lineage.input(0).forward));
}

TEST(RefreshAppendTest, NoNewRowsNoChange) {
  Table t = MakeZipfTable(100, 4, 1.0, 33);
  auto res = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());
  auto before = GroupedRows(res.output, 1);
  std::vector<rid_t> affected;
  ASSERT_TRUE(
      RefreshAppend(&res, t, static_cast<rid_t>(t.num_rows()), &affected)
          .ok());
  EXPECT_TRUE(affected.empty());
  EXPECT_EQ(GroupedRows(res.output, 1), before);
}

TEST(RefreshAppendTest, RejectsResultWithoutInjectLineage) {
  Table t = MakeZipfTable(100, 4, 1.0, 35);
  auto res = GroupByExec(t, "zipf", Spec(), CaptureOptions::None());
  auto before = GroupedRows(res.output, 1);
  std::vector<rid_t> affected;
  Status st = RefreshAppend(&res, t, 0, &affected);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  st = ForwardPropagate(&res, t, {0}, &affected);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(GroupedRows(res.output, 1), before);

  // A first_new_rid that is not the folded row count would fold rows twice.
  auto inj = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());
  EXPECT_EQ(RefreshAppend(&inj, t, 50, &affected).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(GroupedRows(inj.output, 1), before);
}

TEST(ForwardPropagateTest, RecomputesOnlyAffectedGroups) {
  Table t = MakeZipfTable(500, 6, 1.0, 34);
  auto res = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());
  auto before = GroupedRows(res.output, 1);

  std::vector<rid_t> updated = {3, 77, 240};
  for (rid_t r : updated) {
    t.mutable_column(zipf_table::kV).mutable_doubles()[r] += 1000.0;
  }
  std::vector<rid_t> affected;
  ASSERT_TRUE(ForwardPropagate(&res, t, updated, &affected).ok());
  EXPECT_GE(affected.size(), 1u);
  EXPECT_LE(affected.size(), 3u);

  auto full = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());
  EXPECT_EQ(GroupedRows(res.output, 1), GroupedRows(full.output, 1));
  EXPECT_NE(GroupedRows(res.output, 1), before);
}

TEST(ForwardPropagateTest, MinRecomputedCorrectlyOnDecrease) {
  Schema s;
  s.AddField("id", DataType::kInt64);
  s.AddField("z", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  t.AppendRow({int64_t{0}, int64_t{1}, 10.0});
  t.AppendRow({int64_t{1}, int64_t{1}, 20.0});
  auto res = GroupByExec(t, "t", Spec(), CaptureOptions::Inject());
  t.mutable_column(2).mutable_doubles()[1] = 1.0;  // new minimum
  std::vector<rid_t> affected;
  ASSERT_TRUE(ForwardPropagate(&res, t, {1}, &affected).ok());
  auto rows = GroupedRows(res.output, 1);
  EXPECT_EQ(rows.at("1|"), "2|11.000000|1.000000|5.500000|");
}

TEST(ForwardPropagateTest, RejectsOutOfRangeRid) {
  Table t = MakeZipfTable(100, 4, 1.0, 36);
  auto res = GroupByExec(t, "zipf", Spec(), CaptureOptions::Inject());
  auto before = GroupedRows(res.output, 1);
  std::vector<rid_t> affected;
  Status st = ForwardPropagate(&res, t, {3, 100}, &affected);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("100"), std::string::npos);
  EXPECT_EQ(GroupedRows(res.output, 1), before);
}

}  // namespace
}  // namespace smoke
