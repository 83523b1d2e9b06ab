#include "engine/hash_join.h"

#include <map>

#include <gtest/gtest.h>

#include "plan/executor.h"
#include "test_util.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

using testing::Edges;

/// Brute-force join oracle: list of (a_rid, b_rid) matches.
std::vector<std::pair<rid_t, rid_t>> Oracle(const Table& a, int acol,
                                            const Table& b, int bcol) {
  std::vector<std::pair<rid_t, rid_t>> m;
  const auto& av = a.column(static_cast<size_t>(acol)).ints();
  const auto& bv = b.column(static_cast<size_t>(bcol)).ints();
  for (rid_t i = 0; i < a.num_rows(); ++i) {
    for (rid_t j = 0; j < b.num_rows(); ++j) {
      if (av[i] == bv[j]) m.emplace_back(i, j);
    }
  }
  return m;
}

/// Extracts sorted (a, b) witness pairs from a join's backward arrays.
std::vector<std::pair<rid_t, rid_t>> Witnesses(const JoinResult& res) {
  const auto& a_bw = res.lineage.input(0).backward.array();
  const auto& b_bw = res.lineage.input(1).backward.array();
  EXPECT_EQ(a_bw.size(), b_bw.size());
  std::vector<std::pair<rid_t, rid_t>> w;
  for (size_t o = 0; o < a_bw.size(); ++o) w.emplace_back(a_bw[o], b_bw[o]);
  std::sort(w.begin(), w.end());
  return w;
}

JoinSpec MnSpec() {
  JoinSpec s;
  s.left_key = zipf_table::kZ;
  s.right_key = zipf_table::kZ;
  return s;
}

TEST(HashJoinTest, MnInjectMatchesOracle) {
  Table a = MakeZipfTable(60, 10, 1.0, 1);
  Table b = MakeZipfTable(200, 15, 1.0, 2);
  auto res = HashJoinExec(a, "a", b, "b", MnSpec(), CaptureOptions::Inject());
  auto oracle = Oracle(a, zipf_table::kZ, b, zipf_table::kZ);
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(Witnesses(res), oracle);
  EXPECT_EQ(res.output.num_rows(), oracle.size());
  EXPECT_EQ(res.output_cardinality, oracle.size());
}

TEST(HashJoinTest, MnForwardIndexesInvertBackward) {
  Table a = MakeZipfTable(60, 10, 1.0, 1);
  Table b = MakeZipfTable(200, 15, 1.0, 2);
  auto res = HashJoinExec(a, "a", b, "b", MnSpec(), CaptureOptions::Inject());
  EXPECT_TRUE(testing::AreInverse(res.lineage.input(0).backward,
                                  res.lineage.input(0).forward));
  EXPECT_TRUE(testing::AreInverse(res.lineage.input(1).backward,
                                  res.lineage.input(1).forward));
}

TEST(HashJoinTest, DeferMatchesInject) {
  Table a = MakeZipfTable(80, 10, 1.0, 3);
  Table b = MakeZipfTable(300, 12, 0.8, 4);
  auto inj = HashJoinExec(a, "a", b, "b", MnSpec(),
                          CaptureOptions::Inject());
  auto def = HashJoinExec(a, "a", b, "b", MnSpec(), CaptureOptions::Defer());
  EXPECT_EQ(Witnesses(inj), Witnesses(def));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(def.lineage.input(0).forward));
  EXPECT_EQ(Edges(inj.lineage.input(1).forward),
            Edges(def.lineage.input(1).forward));
}

TEST(HashJoinTest, DeferForwardOnlyMatchesInject) {
  Table a = MakeZipfTable(80, 10, 1.0, 3);
  Table b = MakeZipfTable(300, 12, 0.8, 4);
  JoinSpec spec = MnSpec();
  spec.defer_variant = JoinSpec::DeferVariant::kForwardOnly;
  auto inj = HashJoinExec(a, "a", b, "b", MnSpec(),
                          CaptureOptions::Inject());
  auto dfw = HashJoinExec(a, "a", b, "b", spec, CaptureOptions::Defer());
  EXPECT_EQ(Witnesses(inj), Witnesses(dfw));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(dfw.lineage.input(0).forward));
}

TEST(HashJoinTest, PkFkJoin) {
  Table gids = MakeGidsTable(20);
  Table fact = MakeZipfTable(500, 20, 1.0, 5);
  JoinSpec spec;
  spec.left_key = 0;  // gids.id
  spec.right_key = zipf_table::kZ;
  spec.pk_build = true;
  auto res =
      HashJoinExec(gids, "gids", fact, "zipf", spec, CaptureOptions::Inject());
  // Every fact row joins exactly once (fk always present in gids).
  EXPECT_EQ(res.output.num_rows(), fact.num_rows());
  // B-side forward is a 1:1 rid array under the pk-fk optimization.
  ASSERT_EQ(res.lineage.input(1).forward.kind(), LineageIndex::Kind::kArray);
  auto oracle = Oracle(gids, 0, fact, zipf_table::kZ);
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(Witnesses(res), oracle);
}

TEST(HashJoinTest, PkFkDeferEqualsInject) {
  Table gids = MakeGidsTable(15);
  Table fact = MakeZipfTable(400, 15, 1.0, 6);
  JoinSpec spec;
  spec.left_key = 0;
  spec.right_key = zipf_table::kZ;
  spec.pk_build = true;
  auto inj =
      HashJoinExec(gids, "gids", fact, "zipf", spec, CaptureOptions::Inject());
  auto def =
      HashJoinExec(gids, "gids", fact, "zipf", spec, CaptureOptions::Defer());
  EXPECT_EQ(Witnesses(inj), Witnesses(def));
}

TEST(HashJoinTest, TrueCardinalityHintsPreallocateForward) {
  Table a = MakeZipfTable(50, 8, 1.0, 7);
  Table b = MakeZipfTable(400, 8, 1.0, 8);
  CardinalityHints hints;
  hints.per_key_counts = CountPerKey(b, zipf_table::kZ);
  hints.have_per_key_counts = true;
  CaptureOptions opts = CaptureOptions::Inject();
  opts.hints = &hints;
  auto tc = HashJoinExec(a, "a", b, "b", MnSpec(), opts);
  auto plain = HashJoinExec(a, "a", b, "b", MnSpec(),
                            CaptureOptions::Inject());
  EXPECT_EQ(Witnesses(tc), Witnesses(plain));
  // Each left row's forward list was allocated exactly once.
  const RidIndex& fw = tc.lineage.input(0).forward.index();
  for (size_t r = 0; r < fw.size(); ++r) {
    if (fw.list(r).size() > 0) {
      ASSERT_LE(fw.list(r).realloc_count(), 1u);
    }
  }
}

TEST(HashJoinTest, NoMaterializeStillCapturesLineage) {
  Table a = MakeZipfTable(50, 5, 1.0, 9);
  Table b = MakeZipfTable(200, 5, 1.0, 10);
  JoinSpec spec = MnSpec();
  spec.materialize_output = false;
  auto res = HashJoinExec(a, "a", b, "b", spec, CaptureOptions::Inject());
  EXPECT_EQ(res.output.num_rows(), 0u);
  auto oracle = Oracle(a, zipf_table::kZ, b, zipf_table::kZ);
  EXPECT_EQ(res.output_cardinality, oracle.size());
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(Witnesses(res), oracle);
}

TEST(HashJoinTest, LogicIdxMatchesInject) {
  Table a = MakeZipfTable(60, 6, 1.0, 11);
  Table b = MakeZipfTable(250, 6, 1.0, 12);
  auto inj = HashJoinExec(a, "a", b, "b", MnSpec(),
                          CaptureOptions::Inject());
  auto idx = HashJoinExec(a, "a", b, "b", MnSpec(),
                          CaptureOptions::Mode(CaptureMode::kLogicIdx));
  EXPECT_EQ(Witnesses(inj), Witnesses(idx));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(idx.lineage.input(0).forward));
  EXPECT_EQ(Edges(inj.lineage.input(1).forward),
            Edges(idx.lineage.input(1).forward));
}

TEST(HashJoinTest, EmptyProbeResult) {
  Table a = MakeZipfTable(50, 5, 1.0, 13);
  Schema s;
  s.AddField("id", DataType::kInt64);
  s.AddField("z", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table b(s);
  b.AppendRow({int64_t{0}, int64_t{1000}, 0.0});  // no matching key
  auto res = HashJoinExec(a, "a", b, "b", MnSpec(), CaptureOptions::Inject());
  EXPECT_EQ(res.output_cardinality, 0u);
}

TEST(HashJoinTest, ColumnNameCollisionPrefixed) {
  Table a = MakeZipfTable(10, 2, 0.0, 14);
  Table b = MakeZipfTable(10, 2, 0.0, 15);
  auto res = HashJoinExec(a, "a", b, "bee", MnSpec(), CaptureOptions::None());
  EXPECT_GE(res.output.ColumnIndex("bee_z"), 0);
  EXPECT_GE(res.output.ColumnIndex("z"), 0);
}

TEST(HashJoinTest, PkBuildWithDuplicateKeysIsRejected) {
  Schema ds;
  ds.AddField("k", DataType::kInt64);
  ds.AddField("w", DataType::kInt64);
  Table dim(ds);
  dim.AppendRow({int64_t{1}, int64_t{10}});
  dim.AppendRow({int64_t{1}, int64_t{20}});
  Schema fs;
  fs.AddField("fk", DataType::kInt64);
  Table fact(fs);
  fact.AppendRow({int64_t{1}});

  auto plan_for = [&](bool pk) {
    JoinSpec spec;
    spec.left_key = 0;
    spec.right_key = 0;
    spec.pk_build = pk;
    PlanBuilder b;
    LogicalPlan plan;
    SMOKE_CHECK(b.Build(b.HashJoin(b.Scan(&dim, "dim"),
                                   b.Scan(&fact, "fact"), spec),
                        &plan)
                    .ok());
    return plan;
  };
  // The build loop rejects the second row of key 1 instead of keeping only
  // the first, on every probe path.
  for (CaptureMode mode : {CaptureMode::kNone, CaptureMode::kInject}) {
    for (int threads : {1, 2}) {
      CaptureOptions opts = CaptureOptions::Mode(mode);
      opts.num_threads = threads;
      PlanResult r;
      Status st = ExecutePlan(plan_for(true), opts, &r);
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
      EXPECT_NE(st.message().find("pk_build join has duplicate build keys"),
                std::string::npos)
          << st.ToString();
    }
  }
  // The same input as an M:N join matches both build rows.
  PlanResult mn;
  ASSERT_TRUE(ExecutePlan(plan_for(false), CaptureOptions::Inject(), &mn).ok());
  EXPECT_EQ(mn.output.num_rows(), 2u);
}

class JoinPropertySweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, int>> {};

TEST_P(JoinPropertySweep, AllSmokeVariantsAgree) {
  auto [na, nb, groups] = GetParam();
  Table a = MakeZipfTable(na, static_cast<uint64_t>(groups), 1.0, 21);
  Table b = MakeZipfTable(nb, static_cast<uint64_t>(groups), 1.0, 22);
  auto inj = HashJoinExec(a, "a", b, "b", MnSpec(),
                          CaptureOptions::Inject());
  auto def = HashJoinExec(a, "a", b, "b", MnSpec(), CaptureOptions::Defer());
  JoinSpec dfw_spec = MnSpec();
  dfw_spec.defer_variant = JoinSpec::DeferVariant::kForwardOnly;
  auto dfw = HashJoinExec(a, "a", b, "b", dfw_spec, CaptureOptions::Defer());
  auto oracle = Oracle(a, zipf_table::kZ, b, zipf_table::kZ);
  std::sort(oracle.begin(), oracle.end());
  ASSERT_EQ(Witnesses(inj), oracle);
  ASSERT_EQ(Witnesses(def), oracle);
  ASSERT_EQ(Witnesses(dfw), oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinPropertySweep,
    ::testing::Combine(::testing::Values(10, 100), ::testing::Values(50, 500),
                       ::testing::Values(2, 10, 50)));

}  // namespace
}  // namespace smoke
