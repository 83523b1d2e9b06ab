#include "engine/group_by.h"

#include <map>

#include <gtest/gtest.h>

#include "baselines/bdb_sim.h"
#include "baselines/phys_mem.h"
#include "test_util.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

using testing::AreInverse;
using testing::Edges;
using testing::GroupedRows;

GroupBySpec MicrobenchSpec() {
  // The paper's microbenchmark query: z, COUNT(*), SUM(v), SUM(v*v),
  // SUM(sqrt(v)), MIN(v), MAX(v) FROM zipf GROUP BY z.
  using E = ScalarExpr;
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {
      AggSpec::Count("cnt"),
      AggSpec::Sum(E::Col(zipf_table::kV), "sum_v"),
      AggSpec::Sum(E::Mul(E::Col(zipf_table::kV), E::Col(zipf_table::kV)),
                   "sum_v2"),
      AggSpec::Sum(E::Sqrt(E::Col(zipf_table::kV)), "sum_sqrt_v"),
      AggSpec::Min(E::Col(zipf_table::kV), "min_v"),
      AggSpec::Max(E::Col(zipf_table::kV), "max_v"),
  };
  return spec;
}

/// Brute-force reference: group -> (count, sum, rids).
struct RefGroup {
  int64_t count = 0;
  double sum = 0;
  std::vector<rid_t> rids;
};
std::map<int64_t, RefGroup> Reference(const Table& t) {
  std::map<int64_t, RefGroup> ref;
  const auto& zs = t.column(zipf_table::kZ).ints();
  const auto& vs = t.column(zipf_table::kV).doubles();
  for (rid_t r = 0; r < t.num_rows(); ++r) {
    RefGroup& g = ref[zs[r]];
    ++g.count;
    g.sum += vs[r];
    g.rids.push_back(r);
  }
  return ref;
}

TEST(GroupByTest, AggregatesMatchReference) {
  Table t = MakeZipfTable(5000, 40, 1.0);
  auto res = GroupByExec(t, "zipf", MicrobenchSpec(), CaptureOptions::None());
  auto ref = Reference(t);
  ASSERT_EQ(res.output.num_rows(), ref.size());
  const auto& keys = res.output.column(0).ints();
  const auto& counts = res.output.column(1).ints();
  const auto& sums = res.output.column(2).doubles();
  for (size_t g = 0; g < keys.size(); ++g) {
    const RefGroup& rg = ref.at(keys[g]);
    ASSERT_EQ(counts[g], rg.count);
    ASSERT_NEAR(sums[g], rg.sum, 1e-6);
  }
}

TEST(GroupByTest, InjectBackwardListsMatchReference) {
  Table t = MakeZipfTable(2000, 25, 1.2);
  auto res = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  auto ref = Reference(t);
  const auto& keys = res.output.column(0).ints();
  const auto& bw = res.lineage.input(0).backward.index();
  ASSERT_EQ(bw.size(), ref.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    ASSERT_EQ(testing::SortedList(bw, g),
              testing::Sorted(ref.at(keys[g]).rids));
  }
  EXPECT_TRUE(AreInverse(res.lineage.input(0).backward,
                         res.lineage.input(0).forward));
}

TEST(GroupByTest, DeferMatchesInject) {
  Table t = MakeZipfTable(3000, 30, 0.8);
  auto inj = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  auto def = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Defer());
  // Before finalization, Defer has no indexes.
  EXPECT_TRUE(def.lineage.input(0).backward.empty());
  FinalizeDeferredGroupBy(&def, t, CaptureOptions::Defer());
  EXPECT_EQ(GroupedRows(inj.output, 1), GroupedRows(def.output, 1));
  EXPECT_EQ(Edges(inj.lineage.input(0).backward),
            Edges(def.lineage.input(0).backward));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(def.lineage.input(0).forward));
}

TEST(GroupByTest, DeferPreallocatesExactly) {
  Table t = MakeZipfTable(3000, 30, 0.8);
  auto def = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Defer());
  FinalizeDeferredGroupBy(&def, t, CaptureOptions::Defer());
  const auto& bw = def.lineage.input(0).backward.index();
  // Exactly-sized lists: zero growth reallocations beyond the initial
  // reservation.
  EXPECT_EQ(bw.TotalReallocs(), bw.size());
}

TEST(GroupByTest, TrueCardinalitiesMatchInject) {
  Table t = MakeZipfTable(3000, 20, 1.0);
  auto plain = GroupByExec(t, "zipf", MicrobenchSpec(),
                           CaptureOptions::Inject());
  CardinalityHints hints;
  hints.per_key_counts = CountPerKey(t, zipf_table::kZ);
  hints.have_per_key_counts = true;
  hints.expected_groups = 20;
  CaptureOptions opts = CaptureOptions::Inject();
  opts.hints = &hints;
  auto tc = GroupByExec(t, "zipf", MicrobenchSpec(), opts);
  EXPECT_EQ(Edges(plain.lineage.input(0).backward),
            Edges(tc.lineage.input(0).backward));
  // With exact per-key counts, each list is allocated once.
  EXPECT_EQ(tc.lineage.input(0).backward.index().TotalReallocs(),
            tc.lineage.input(0).backward.index().size());
}

TEST(GroupByTest, LogicRidAnnotatedRelation) {
  Table t = MakeZipfTable(500, 10, 1.0);
  auto res = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Mode(CaptureMode::kLogicRid));
  // Denormalized: one row per input row.
  ASSERT_EQ(res.annotated.num_rows(), t.num_rows());
  int ann = res.annotated.ColumnIndex("prov_rid");
  ASSERT_GE(ann, 0);
  const auto& rids = res.annotated.column(static_cast<size_t>(ann)).ints();
  const auto& zs = t.column(zipf_table::kZ).ints();
  const auto& out_z = res.annotated.column(0).ints();
  for (size_t i = 0; i < rids.size(); ++i) {
    // Each annotated row carries its input's group key.
    ASSERT_EQ(out_z[i], zs[static_cast<size_t>(rids[i])]);
  }
}

TEST(GroupByTest, LogicTupAnnotatedRelationIsWider) {
  Table t = MakeZipfTable(100, 5, 1.0);
  auto rid_res = GroupByExec(t, "zipf", MicrobenchSpec(),
                             CaptureOptions::Mode(CaptureMode::kLogicRid));
  auto tup_res = GroupByExec(t, "zipf", MicrobenchSpec(),
                             CaptureOptions::Mode(CaptureMode::kLogicTup));
  EXPECT_GT(tup_res.annotated.num_columns(), rid_res.annotated.num_columns());
  EXPECT_EQ(tup_res.annotated.num_rows(), t.num_rows());
}

TEST(GroupByTest, LogicIdxMatchesInject) {
  Table t = MakeZipfTable(1000, 15, 1.0);
  auto inj = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  auto idx = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Mode(CaptureMode::kLogicIdx));
  EXPECT_EQ(Edges(inj.lineage.input(0).backward),
            Edges(idx.lineage.input(0).backward));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(idx.lineage.input(0).forward));
}

TEST(GroupByTest, PhysMemMatchesInject) {
  Table t = MakeZipfTable(1000, 15, 1.0);
  auto inj = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  PhysMemWriter writer;
  CaptureOptions opts = CaptureOptions::Mode(CaptureMode::kPhysMem);
  opts.writer = &writer;
  auto phys = GroupByExec(t, "zipf", MicrobenchSpec(), opts);
  EXPECT_EQ(GroupedRows(inj.output, 1), GroupedRows(phys.output, 1));
  LineageIndex bw = LineageIndex::FromIndex(writer.ExportBackward());
  EXPECT_EQ(Edges(inj.lineage.input(0).backward), Edges(bw));
  LineageIndex fw =
      LineageIndex::FromIndex(writer.ExportForward(t.num_rows()));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward), Edges(fw));
}

TEST(GroupByTest, PhysBdbMatchesInject) {
  Table t = MakeZipfTable(800, 12, 1.0);
  auto inj = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  BdbWriter writer;
  CaptureOptions opts = CaptureOptions::Mode(CaptureMode::kPhysBdb);
  opts.writer = &writer;
  GroupByExec(t, "zipf", MicrobenchSpec(), opts);
  const auto& bw = inj.lineage.input(0).backward.index();
  for (size_t g = 0; g < bw.size(); ++g) {
    std::vector<rid_t> got;
    writer.FetchBackward(static_cast<rid_t>(g), &got);
    ASSERT_EQ(testing::Sorted(got), testing::SortedList(bw, g));
  }
}

TEST(GroupByTest, CompositeStringKeys) {
  Schema s;
  s.AddField("a", DataType::kString);
  s.AddField("b", DataType::kString);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  t.AppendRow({std::string("x"), std::string("p"), 1.0});
  t.AppendRow({std::string("x"), std::string("q"), 2.0});
  t.AppendRow({std::string("x"), std::string("p"), 3.0});
  t.AppendRow({std::string("y"), std::string("p"), 4.0});
  GroupBySpec spec;
  spec.keys = {0, 1};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(2), "sum_v")};
  auto res = GroupByExec(t, "t", spec, CaptureOptions::Inject());
  EXPECT_EQ(res.output.num_rows(), 3u);
  auto rows = GroupedRows(res.output, 2);
  EXPECT_EQ(rows.at("x|p|"), "2|4.000000|");
  EXPECT_EQ(rows.at("x|q|"), "1|2.000000|");
  EXPECT_EQ(rows.at("y|p|"), "1|4.000000|");
  const auto& bw = res.lineage.input(0).backward.index();
  size_t total = 0;
  for (size_t g = 0; g < bw.size(); ++g) total += bw.list(g).size();
  EXPECT_EQ(total, 4u);
}

TEST(GroupByTest, AvgAggregate) {
  Table t = MakeZipfTable(100, 4, 0.0);
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Avg(ScalarExpr::Col(zipf_table::kV), "avg_v"),
               AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
  auto res = GroupByExec(t, "zipf", spec, CaptureOptions::None());
  const auto& avgs = res.output.column(1).doubles();
  const auto& counts = res.output.column(2).ints();
  const auto& sums = res.output.column(3).doubles();
  for (size_t g = 0; g < res.output.num_rows(); ++g) {
    ASSERT_NEAR(avgs[g], sums[g] / static_cast<double>(counts[g]), 1e-9);
  }
}

TEST(GroupByTest, SingleGroup) {
  Table t = MakeZipfTable(100, 1, 0.0);
  auto res = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  ASSERT_EQ(res.output.num_rows(), 1u);
  EXPECT_EQ(res.lineage.input(0).backward.index().list(0).size(), 100u);
}

TEST(GroupByTest, ForwardOnlyPruning) {
  Table t = MakeZipfTable(200, 8, 1.0);
  CaptureOptions opts = CaptureOptions::Inject();
  opts.capture_backward = false;
  auto res = GroupByExec(t, "zipf", MicrobenchSpec(), opts);
  EXPECT_TRUE(res.lineage.input(0).backward.empty());
  ASSERT_FALSE(res.lineage.input(0).forward.empty());
  // Forward array still maps every row to its group.
  const auto& fw = res.lineage.input(0).forward.array();
  const auto& zs = t.column(zipf_table::kZ).ints();
  const auto& out_z = res.output.column(0).ints();
  for (rid_t r = 0; r < 200; ++r) {
    ASSERT_EQ(out_z[fw[r]], zs[r]);
  }
}

// SELECT keys FROM t GROUP BY keys: no aggregates, so the per-group
// aggregate state has zero width. Single int keys take the IntKeyMap path,
// (z, id % 3) the encoded-key path; both run with capture on and off,
// sequentially and partition-parallel.
TEST(GroupByTest, ZeroAggregatesGroupDistinctKeys) {
  Table t = MakeZipfTable(3000, 30, 1.0);
  auto ref = Reference(t);
  const auto& ids = t.column(zipf_table::kId).ints();
  const auto& zs = t.column(zipf_table::kZ).ints();
  std::map<std::pair<int64_t, int64_t>, std::vector<rid_t>> pair_ref;
  for (rid_t r = 0; r < t.num_rows(); ++r) {
    pair_ref[{zs[r], ids[r] % 3}].push_back(r);
  }
  // The derived second key lives in a copy with an extra column.
  Schema s = t.schema();
  s.AddField("id_mod3", DataType::kInt64);
  Table t2(s);
  for (rid_t r = 0; r < t.num_rows(); ++r) {
    t2.AppendRow({ids[r], zs[r], t.column(zipf_table::kV).doubles()[r],
                  ids[r] % 3});
  }

  for (bool capture : {false, true}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(capture ? "inject" : "none") + ", " +
                   std::to_string(threads) + " threads");
      CaptureOptions opts =
          capture ? CaptureOptions::Inject() : CaptureOptions::None();
      opts.num_threads = threads;

      GroupBySpec by_z;
      by_z.keys = {zipf_table::kZ};
      auto res = GroupByExec(t, "zipf", by_z, opts);
      ASSERT_EQ(res.output.num_columns(), 1u);
      ASSERT_EQ(res.output.num_rows(), ref.size());
      const auto& keys = res.output.column(0).ints();
      if (capture) {
        const LineageIndex& bw = res.lineage.input(0).backward;
        for (size_t g = 0; g < keys.size(); ++g) {
          ASSERT_EQ(testing::SortedList(bw.index(), g),
                    testing::Sorted(ref.at(keys[g]).rids));
        }
        EXPECT_TRUE(AreInverse(bw, res.lineage.input(0).forward));
      } else {
        for (int64_t k : keys) EXPECT_EQ(ref.count(k), 1u);
      }

      GroupBySpec by_pair;
      by_pair.keys = {zipf_table::kZ, 3};
      auto pres = GroupByExec(t2, "zipf", by_pair, opts);
      ASSERT_EQ(pres.output.num_columns(), 2u);
      ASSERT_EQ(pres.output.num_rows(), pair_ref.size());
      const auto& pz = pres.output.column(0).ints();
      const auto& pm = pres.output.column(1).ints();
      for (size_t g = 0; g < pz.size(); ++g) {
        const auto it = pair_ref.find({pz[g], pm[g]});
        ASSERT_NE(it, pair_ref.end());
        if (capture) {
          ASSERT_EQ(testing::SortedList(
                        pres.lineage.input(0).backward.index(), g),
                    it->second);
        }
      }
    }
  }
}

class GroupByPropertySweep
    : public ::testing::TestWithParam<std::tuple<size_t, int, double>> {};

TEST_P(GroupByPropertySweep, InverseAndPartitionProperties) {
  auto [n, groups, theta] = GetParam();
  Table t = MakeZipfTable(n, static_cast<uint64_t>(groups), theta);
  auto res = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Inject());
  const auto& bw = res.lineage.input(0).backward.index();
  // Backward lists partition the input: every rid appears exactly once.
  std::vector<int> seen(n, 0);
  for (size_t g = 0; g < bw.size(); ++g) {
    for (rid_t r : bw.list(g)) ++seen[r];
  }
  for (size_t r = 0; r < n; ++r) ASSERT_EQ(seen[r], 1);
  ASSERT_TRUE(AreInverse(res.lineage.input(0).backward,
                         res.lineage.input(0).forward));
  // Defer agrees.
  auto def = GroupByExec(t, "zipf", MicrobenchSpec(),
                         CaptureOptions::Defer());
  FinalizeDeferredGroupBy(&def, t, CaptureOptions::Defer());
  ASSERT_EQ(Edges(res.lineage.input(0).backward),
            Edges(def.lineage.input(0).backward));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupByPropertySweep,
    ::testing::Combine(::testing::Values(100, 1000, 5000),
                       ::testing::Values(1, 10, 100),
                       ::testing::Values(0.0, 1.0, 1.6)));

}  // namespace
}  // namespace smoke
