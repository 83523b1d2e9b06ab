// Property sweep for the live-refresh subsystem: random plan chains ×
// randomized append-batch schedules × thread counts × store codecs. After
// every batch, the incrementally maintained view must be bit-identical —
// output rows in rid order AND all lineage directions per relation — to
// dropping the view and re-executing the plan over the accumulated table.
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "refresh/refresh.h"
#include "test_util.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

using testing::Edges;

struct SweepParam {
  uint64_t seed;
  int threads;
  LineageCodec codec;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_t" +
         std::to_string(info.param.threads) +
         (info.param.codec == LineageCodec::kRaw ? "_raw" : "_adaptive");
}

/// One randomly drawn chain shape. The generator owns the shape choice and
/// every knob in it (predicate threshold, join multiplicity, aggregate mix)
/// so each seed exercises a different plan.
struct ChainShape {
  bool join = false;        // dim ⋈ fact probe chain
  bool pk_dim = true;       // unique vs duplicated dim keys
  bool select = false;      // predicate on v below everything
  bool derive = false;      // Scale100(v) derived key column
  bool group_root = false;  // group-by at the root (else select/project root)
  double sel_threshold = 50.0;
};

ChainShape DrawShape(std::mt19937_64* rng) {
  ChainShape s;
  s.join = (*rng)() % 3 == 0;
  s.pk_dim = (*rng)() % 2 == 0;
  s.select = (*rng)() % 2 == 0;
  s.derive = !s.join && (*rng)() % 3 == 0;
  s.group_root = s.join || (*rng)() % 4 != 0;
  s.sel_threshold = 20.0 + static_cast<double>((*rng)() % 60);
  return s;
}

/// Dim table with each gid duplicated `dup` times (dup=1 → pk side).
Table MakeDimTable(uint64_t groups, int dup, uint64_t seed) {
  Table base = MakeGidsTable(groups, seed);
  if (dup <= 1) return base;
  Table t(base.schema());
  for (int d = 0; d < dup; ++d) {
    for (size_t r = 0; r < base.num_rows(); ++r) {
      t.AppendRowFrom(base, static_cast<rid_t>(r));
    }
  }
  return t;
}

LogicalPlan BuildChain(const ChainShape& s, const Table* fact,
                       const Table* dim) {
  PlanBuilder b;
  int cur = b.Scan(fact, "fact");
  if (s.select) {
    cur = b.Select(cur, {Predicate::Double(zipf_table::kV, CmpOp::kLt,
                                           s.sel_threshold)});
  }
  int key_col = zipf_table::kZ;
  int val_col = zipf_table::kV;
  if (s.derive) {
    cur = b.Derive(cur, {GroupExpr::Scale100(zipf_table::kV, "v100")});
    key_col = 3;  // id, z, v, v100
  }
  if (s.join) {
    JoinSpec js;
    js.left_key = 0;  // dim.id
    js.right_key = zipf_table::kZ;
    js.pk_build = s.pk_dim;
    cur = b.HashJoin(b.Scan(dim, "dim"), b.Scan(fact, "fact"), js);
    // dim(id, payload) ++ fact(id, z, v)
    key_col = 0;
    val_col = 4;
  }
  LogicalPlan plan;
  if (s.group_root) {
    GroupBySpec spec;
    spec.keys = {key_col};
    spec.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col(val_col), "sum_v"),
                 AggSpec::Min(ScalarExpr::Col(val_col), "min_v")};
    cur = b.GroupBy(cur, spec);
    SMOKE_CHECK(b.Build(cur, &plan).ok());
    return plan;
  }
  if (!s.select) {
    // Guarantee a non-scan root for the non-grouped case.
    cur = b.Select(cur, {Predicate::Double(zipf_table::kV, CmpOp::kGe, 0.0)});
  }
  cur = b.Project(cur, {zipf_table::kZ, zipf_table::kV});
  SMOKE_CHECK(b.Build(cur, &plan).ok());
  return plan;
}

/// Joins rebuild their plan against the *mirror* tables for the reference
/// run; the shape decides which tables the plan borrows.
void ExpectMatchesReference(const ChainShape& shape, const PlanResult& got,
                            const Table& fact, const Table& dim,
                            const std::string& label) {
  PlanResult want;
  ASSERT_TRUE(
      ExecutePlan(BuildChain(shape, &fact, &dim), CaptureOptions::Inject(),
                  &want)
          .ok())
      << label;
  ASSERT_EQ(got.output.num_rows(), want.output.num_rows()) << label;
  for (size_t r = 0; r < want.output.num_rows(); ++r) {
    ASSERT_EQ(testing::RowKey(got.output, static_cast<rid_t>(r)),
              testing::RowKey(want.output, static_cast<rid_t>(r)))
        << label << " row " << r;
  }
  ASSERT_EQ(got.lineage.num_inputs(), want.lineage.num_inputs()) << label;
  for (size_t i = 0; i < want.lineage.num_inputs(); ++i) {
    const TableLineage& g = got.lineage.input(i);
    const TableLineage& w = want.lineage.input(i);
    ASSERT_EQ(g.table_name, w.table_name) << label;
    ASSERT_EQ(Edges(g.backward), Edges(w.backward))
        << label << " backward " << g.table_name;
    ASSERT_EQ(Edges(g.forward), Edges(w.forward))
        << label << " forward " << g.table_name;
    ASSERT_TRUE(testing::AreInverse(g.backward, g.forward))
        << label << " " << g.table_name;
  }
}

/// Adds the physical encodings of `idx` to `seen` (an encoded array's
/// form, every encoded list's form).
void NoteEncodings(const LineageIndex& idx, std::set<RidSetEncoding>* seen) {
  if (idx.kind() == LineageIndex::Kind::kEncodedArray) {
    seen->insert(idx.encoded_array().encoding());
  } else if (idx.kind() == LineageIndex::Kind::kEncodedIndex) {
    const EncodedPostings& p = idx.encoded_postings();
    for (size_t i = 0; i < p.num_lists(); ++i) seen->insert(p.list_encoding(i));
  }
}

class RefreshPropertySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RefreshPropertySweep, RefreshedViewsMatchFullReexecution) {
  const SweepParam p = GetParam();
  std::mt19937_64 rng(p.seed * 7919 + 17);
  std::set<RidSetEncoding> seen;  // encoded forms the refreshes start from

  for (int trial = 0; trial < 4; ++trial) {
    const ChainShape shape = DrawShape(&rng);
    const uint64_t groups = 4 + rng() % 8;
    const size_t base_rows = 200 + rng() % 400;
    const std::string label = "seed=" + std::to_string(p.seed) + " trial=" +
                              std::to_string(trial);

    SmokeEngine engine;
    Table fact = MakeZipfTable(base_rows, groups, 1.0, p.seed + trial);
    Table dim = MakeDimTable(groups, shape.pk_dim ? 1 : 3,
                             p.seed + trial + 100);
    ASSERT_TRUE(
        engine.CreateTable("fact", MakeZipfTable(base_rows, groups, 1.0,
                                                 p.seed + trial))
            .ok());
    ASSERT_TRUE(engine
                    .CreateTable("dim",
                                 MakeDimTable(groups, shape.pk_dim ? 1 : 3,
                                              p.seed + trial + 100))
                    .ok());
    const Table* efact = nullptr;
    const Table* edim = nullptr;
    ASSERT_TRUE(engine.GetTable("fact", &efact).ok());
    ASSERT_TRUE(engine.GetTable("dim", &edim).ok());

    CaptureOptions opts = CaptureOptions::Inject();
    opts.retain_refresh_state = true;
    opts.lineage_codec = p.codec;
    opts.num_threads = p.threads;
    ASSERT_TRUE(engine
                    .ExecutePlan("view", BuildChain(shape, efact, edim),
                                 opts)
                    .ok())
        << label;
    const PlanResult* pr = nullptr;
    ASSERT_TRUE(engine.GetPlanResult("view", &pr).ok());
    ASSERT_TRUE(pr->refreshable()) << label;
    for (size_t i = 0; i < pr->lineage.num_inputs(); ++i) {
      NoteEncodings(pr->lineage.input(i).backward, &seen);
      NoteEncodings(pr->lineage.input(i).forward, &seen);
    }

    // Randomized schedule: 3 append batches of varying size (possibly
    // empty); join shapes sneak in one dim-side append mid-schedule to
    // force the scoped-rebuild path before resuming incrementally.
    for (int round = 0; round < 3; ++round) {
      const size_t batch = rng() % 3 == 0 ? 0 : 50 + rng() % 200;
      Table delta = MakeZipfTable(batch, groups + rng() % 4, 0.7,
                                  p.seed * 31 + trial * 7 +
                                      static_cast<uint64_t>(round));
      for (size_t r = 0; r < delta.num_rows(); ++r) {
        fact.AppendRowFrom(delta, static_cast<rid_t>(r));
      }
      std::vector<RefreshStats> stats;
      ASSERT_TRUE(engine.AppendRows("fact", delta, &stats).ok()) << label;
      ASSERT_EQ(stats.size(), 1u);
      EXPECT_TRUE(stats[0].incremental) << label << ": "
                                        << stats[0].fallback_reason;

      if (shape.join && round == 1) {
        Table extra(dim.schema());
        const int64_t new_key = static_cast<int64_t>(groups + 50);
        extra.AppendRow({new_key, 0.5});
        dim.AppendRowFrom(extra, 0);
        stats.clear();
        ASSERT_TRUE(engine.AppendRows("dim", extra, &stats).ok()) << label;
        ASSERT_EQ(stats.size(), 1u);
        EXPECT_FALSE(stats[0].incremental) << label;
      }

      ExpectMatchesReference(shape, *pr, fact, dim,
                             label + " round=" + std::to_string(round));
    }
  }
  // The adaptive runs refresh through the bit-packed 1:1 arrays and
  // Elias-Fano posting lists, not only through raw copies.
  if (p.codec == LineageCodec::kAdaptive) {
    EXPECT_EQ(seen.count(RidSetEncoding::kPacked), 1u);
    EXPECT_EQ(seen.count(RidSetEncoding::kEliasFano), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RefreshPropertySweep,
    ::testing::Values(SweepParam{1, 1, LineageCodec::kRaw},
                      SweepParam{2, 1, LineageCodec::kAdaptive},
                      SweepParam{3, 7, LineageCodec::kRaw},
                      SweepParam{4, 7, LineageCodec::kAdaptive},
                      SweepParam{5, 1, LineageCodec::kRaw},
                      SweepParam{6, 7, LineageCodec::kAdaptive}),
    ParamName);

}  // namespace
}  // namespace smoke
