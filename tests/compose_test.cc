// Property-style tests for lineage composition (lineage/compose.h): the
// composed index of a chain of operators must equal the brute-force
// relational join of the per-operator edge sets, and composed
// backward/forward pairs must stay mutual inverses.
#include "lineage/compose.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "engine/group_by.h"
#include "engine/select.h"
#include "lineage/fragment_merge.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "test_util.h"

namespace smoke {
namespace {

using testing::AreInverse;
using testing::Edges;

/// Deterministic LCG so the property tests are reproducible.
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

/// Random 1-to-N index: `n_src` entries over targets < n_dst.
LineageIndex RandomIndex(Lcg* rng, size_t n_src, size_t n_dst,
                         uint32_t max_fanout) {
  RidIndex idx(n_src);
  for (size_t i = 0; i < n_src; ++i) {
    uint32_t fanout = rng->Next(max_fanout + 1);
    for (uint32_t k = 0; k < fanout; ++k) {
      idx.Append(i, rng->Next(static_cast<uint32_t>(n_dst)));
    }
  }
  return LineageIndex::FromIndex(std::move(idx));
}

/// Random 1-to-1 array: `n_src` entries, ~1/5 unmapped.
LineageIndex RandomArray(Lcg* rng, size_t n_src, size_t n_dst) {
  RidArray arr(n_src, kInvalidRid);
  for (size_t i = 0; i < n_src; ++i) {
    if (rng->Next(5) != 0) arr[i] = rng->Next(static_cast<uint32_t>(n_dst));
  }
  return LineageIndex::FromArray(std::move(arr));
}

/// Brute-force composition: for each (s, m) edge of `outer` and (m, t) edge
/// of `inner`, one (s, t) edge — multiset semantics.
std::multiset<std::pair<rid_t, rid_t>> JoinEdges(const LineageIndex& outer,
                                                 const LineageIndex& inner) {
  std::multimap<rid_t, rid_t> inner_edges;
  for (auto [m, t] : Edges(inner)) inner_edges.emplace(m, t);
  std::multiset<std::pair<rid_t, rid_t>> out;
  for (auto [s, m] : Edges(outer)) {
    auto [lo, hi] = inner_edges.equal_range(m);
    for (auto it = lo; it != hi; ++it) out.emplace(s, it->second);
  }
  return out;
}

TEST(ComposePropertyTest, BackwardEqualsBruteForceJoin) {
  Lcg rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n_out = 1 + rng.Next(20);
    size_t n_mid = 1 + rng.Next(30);
    size_t n_in = 1 + rng.Next(40);
    LineageIndex outer = trial % 2 == 0 ? RandomIndex(&rng, n_out, n_mid, 4)
                                        : RandomArray(&rng, n_out, n_mid);
    LineageIndex inner = trial % 3 == 0 ? RandomArray(&rng, n_mid, n_in)
                                        : RandomIndex(&rng, n_mid, n_in, 3);
    LineageIndex composed = ComposeBackward(outer, inner);
    auto got = Edges(composed);
    std::multiset<std::pair<rid_t, rid_t>> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, JoinEdges(outer, inner)) << "trial " << trial;
    EXPECT_EQ(composed.size(), n_out);
  }
}

TEST(ComposePropertyTest, ForwardEqualsDeduplicatedJoin) {
  Lcg rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n_in = 1 + rng.Next(30);
    size_t n_mid = 1 + rng.Next(20);
    size_t n_out = 1 + rng.Next(25);
    LineageIndex inner = trial % 2 == 0 ? RandomIndex(&rng, n_in, n_mid, 3)
                                        : RandomArray(&rng, n_in, n_mid);
    LineageIndex outer = trial % 3 == 0 ? RandomArray(&rng, n_mid, n_out)
                                        : RandomIndex(&rng, n_mid, n_out, 4);
    LineageIndex composed = ComposeForward(inner, outer);
    // Forward is set-valued: compare deduplicated edge sets.
    auto got = Edges(composed);
    std::set<std::pair<rid_t, rid_t>> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set.size(), got.size()) << "duplicate forward edges";
    auto joined = JoinEdges(inner, outer);
    std::set<std::pair<rid_t, rid_t>> want(joined.begin(), joined.end());
    EXPECT_EQ(got_set, want) << "trial " << trial;
    EXPECT_EQ(composed.size(), n_in);
  }
}

TEST(ComposePropertyTest, ComposedPairsStayInverse) {
  // When outer/forward pairs are themselves inverses (as operator capture
  // guarantees), the composed pair must be too.
  Lcg rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n_out = 1 + rng.Next(10);
    size_t n_mid = 1 + rng.Next(15);
    size_t n_in = 1 + rng.Next(20);
    LineageIndex outer_b = RandomIndex(&rng, n_out, n_mid, 3);
    LineageIndex inner_b = RandomIndex(&rng, n_mid, n_in, 3);
    // Build the forward inverses by transposing.
    auto transpose = [](const LineageIndex& b, size_t n_targets) {
      RidIndex f(n_targets);
      for (auto [s, t] : Edges(b)) f.Append(t, s);
      return LineageIndex::FromIndex(std::move(f));
    };
    LineageIndex outer_f = transpose(outer_b, n_mid);
    LineageIndex inner_f = transpose(inner_b, n_in);

    LineageIndex comp_b = ComposeBackward(outer_b, inner_b);
    LineageIndex comp_f = ComposeForward(inner_f, outer_f);
    EXPECT_TRUE(AreInverse(comp_b, comp_f)) << "trial " << trial;
  }
}

TEST(ComposeTest, EmptySidesYieldEmpty) {
  Lcg rng(1);
  LineageIndex some = RandomIndex(&rng, 5, 5, 2);
  EXPECT_TRUE(ComposeBackward(LineageIndex(), some).empty());
  EXPECT_TRUE(ComposeBackward(some, LineageIndex()).empty());
  EXPECT_TRUE(ComposeForward(LineageIndex(), some).empty());
  EXPECT_TRUE(ComposeForward(some, LineageIndex()).empty());
}

TEST(ComposeTest, ArrayArrayStaysArray) {
  RidArray outer = {2, kInvalidRid, 0};
  RidArray inner = {7, 8, 9};
  LineageIndex composed = ComposeBackward(LineageIndex::FromArray(outer),
                                          LineageIndex::FromArray(inner));
  ASSERT_EQ(composed.kind(), LineageIndex::Kind::kArray);
  EXPECT_EQ(composed.array()[0], 9u);
  EXPECT_EQ(composed.array()[1], kInvalidRid);
  EXPECT_EQ(composed.array()[2], 7u);
}

TEST(ComposeTest, MergePreservesBackwardMultiplicity) {
  RidIndex a(2), b(2);
  a.Append(0, 5);
  b.Append(0, 5);  // same edge through a second derivation path
  b.Append(1, 6);
  LineageIndex dst = LineageIndex::FromIndex(std::move(a));
  MergeBackwardInto(&dst, LineageIndex::FromIndex(std::move(b)));
  EXPECT_EQ(dst.index().list(0).size(), 2u);  // duplicates kept
  EXPECT_EQ(dst.index().list(1).size(), 1u);

  RidIndex c(2), d(2);
  c.Append(0, 3);
  d.Append(0, 3);
  d.Append(0, 4);
  LineageIndex fdst = LineageIndex::FromIndex(std::move(c));
  MergeForwardInto(&fdst, LineageIndex::FromIndex(std::move(d)));
  EXPECT_EQ(fdst.index().list(0).size(), 2u);  // {3, 4}: deduplicated
}

// ---------------------------------------------------------------------------
// End-to-end property over a real 3-operator chain: the plan executor's
// composed indexes equal the brute-force join of independently captured
// per-operator fragments.
// ---------------------------------------------------------------------------

TEST(ComposeTest, ForwardIsOneToOneUnlessAnInputReachesTwoOutputs) {
  // inner: input -> two intermediates; outer: both reach output 3.
  RidIndex inner(2);
  inner.Append(0, 0);
  inner.Append(0, 1);
  inner.Append(1, 2);
  RidArray same = {3, 3, 4};
  LineageIndex narrow = ComposeForward(LineageIndex::FromIndex(inner),
                                       LineageIndex::FromArray(same));
  ASSERT_EQ(narrow.kind(), LineageIndex::Kind::kArray);  // deduplicated
  EXPECT_EQ(narrow.array(), (RidArray{3, 4}));
  RidArray split = {3, 5, 4};
  LineageIndex wide = ComposeForward(LineageIndex::FromIndex(inner),
                                     LineageIndex::FromArray(split));
  ASSERT_EQ(wide.kind(), LineageIndex::Kind::kIndex);
  EXPECT_EQ(testing::Edges(wide),
            (std::vector<std::pair<rid_t, rid_t>>{{0, 3}, {0, 5}, {1, 4}}));

  // A forward merge stays 1:1 while both sides agree.
  LineageIndex dst = LineageIndex::FromArray({1, kInvalidRid});
  MergeForwardInto(&dst, LineageIndex::FromArray({1, 2}));
  ASSERT_EQ(dst.kind(), LineageIndex::Kind::kArray);
  EXPECT_EQ(dst.array(), (RidArray{1, 2}));
  MergeForwardInto(&dst, LineageIndex::FromArray({0, 2}));
  ASSERT_EQ(dst.kind(), LineageIndex::Kind::kIndex);
  EXPECT_EQ(testing::Edges(dst),
            (std::vector<std::pair<rid_t, rid_t>>{{0, 0}, {0, 1}, {1, 2}}));
}

// A plan-root kernel's forward is narrowed at finalize too: a join's build
// side whose rows each reach one output is 1:1, one whose rows reach two
// stays 1:N. Both trace like the kernel's own index.
TEST(ComposeTest, RootKernelForwardIsNarrowedAtFinalize) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  Table dim(s), fact(s), fact2(s);
  for (int64_t k = 0; k < 50; ++k) {
    dim.AppendRow({k});
    fact.AppendRow({k});
    fact2.AppendRow({k / 2});  // two fact rows per dim row below 25
  }
  for (const Table* probe : {&fact, &fact2}) {
    PlanBuilder b;
    JoinSpec js;
    js.left_key = 0;
    js.right_key = 0;
    js.pk_build = true;
    LogicalPlan plan;
    ASSERT_TRUE(
        b.Build(b.HashJoin(b.Scan(&dim, "dim"), b.Scan(probe, "fact"), js),
                &plan)
            .ok());
    PlanResult pr;
    ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &pr).ok());
    const int di = pr.lineage.FindInput("dim");
    ASSERT_GE(di, 0);
    const TableLineage& tl = pr.lineage.input(static_cast<size_t>(di));
    EXPECT_EQ(tl.forward.kind(), probe == &fact ? LineageIndex::Kind::kArray
                                                : LineageIndex::Kind::kIndex);
    EXPECT_TRUE(testing::AreInverse(tl.backward, tl.forward));
  }
}

// The refresh builders take a narrowed 1:1 forward: a position's first rid
// keeps it 1:1 (raw), a second one promotes the whole index — raw to
// kIndex, encoded to kEncodedIndex — without losing an edge.
TEST(ComposeTest, RefreshBuildersPromoteOneToOneForms) {
  for (bool encoded : {false, true}) {
    SCOPED_TRACE(encoded ? "encoded" : "raw");
    auto make = [encoded](RidArray a) {
      return encoded ? LineageIndex::FromEncodedArray(EncodedRidArray::Encode(
                           std::move(a), LineageCodec::kAdaptive))
                     : LineageIndex::FromArray(std::move(a));
    };
    const LineageCodec codec = LineageCodec::kAdaptive;
    // AppendIndexList: lists of 0 or 1 rids stay 1:1; 2 rids promote.
    LineageIndex app = make({1, kInvalidRid});
    const rid_t d[] = {7, 9};
    AppendIndexList(&app, d, 1, codec);
    AppendIndexList(&app, nullptr, 0, codec);
    EXPECT_TRUE(app.IsOneToOne());
    AppendIndexList(&app, d, 2, codec);
    EXPECT_FALSE(app.IsOneToOne());
    EXPECT_EQ(testing::Edges(app), (std::vector<std::pair<rid_t, rid_t>>{
                                       {0, 1}, {2, 7}, {4, 7}, {4, 9}}));

    // ExtendIndexList: the first rid of an empty position stays 1:1 raw;
    // a second rid promotes.
    LineageIndex ext = make({1, kInvalidRid, 2});
    ExtendIndexList(&ext, 1, d, 1, codec);
    if (!encoded) {
      EXPECT_EQ(ext.kind(), LineageIndex::Kind::kArray);
    }
    ExtendIndexList(&ext, 0, d + 1, 1, codec);
    EXPECT_FALSE(ext.IsOneToOne());
    EXPECT_EQ(testing::Edges(ext), (std::vector<std::pair<rid_t, rid_t>>{
                                       {0, 1}, {0, 9}, {1, 7}, {2, 2}}));

    // InsertSortedIntoIndexList: a present rid is a no-op, a new one
    // promotes and lands in order.
    LineageIndex ins = make({5, kInvalidRid});
    InsertSortedIntoIndexList(&ins, 0, 5, codec);
    EXPECT_TRUE(ins.IsOneToOne());
    InsertSortedIntoIndexList(&ins, 1, 3, codec);
    if (!encoded) {
      EXPECT_EQ(ins.kind(), LineageIndex::Kind::kArray);
    }
    InsertSortedIntoIndexList(&ins, 0, 2, codec);
    EXPECT_FALSE(ins.IsOneToOne());
    std::vector<rid_t> list0;
    ins.TraceInto(0, &list0);
    EXPECT_EQ(list0, (std::vector<rid_t>{2, 5}));
    EXPECT_EQ(testing::Edges(ins), (std::vector<std::pair<rid_t, rid_t>>{
                                       {0, 2}, {0, 5}, {1, 3}}));
  }
}

TEST(ComposeChainTest, ThreeOperatorChainMatchesPerOperatorJoin) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("v", DataType::kInt64);
  Table t(s);
  Lcg rng(1234);
  for (int i = 0; i < 200; ++i) {
    t.AppendRow({static_cast<int64_t>(rng.Next(12)),
                 static_cast<int64_t>(rng.Next(100))});
  }

  // Chain: select(v < 60) -> group_by(k; count, sum v) -> select(count >= 5).
  std::vector<Predicate> pre = {Predicate::Int(1, CmpOp::kLt, 60)};
  GroupBySpec agg;
  agg.keys = {0};
  agg.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(1), "sum")};
  std::vector<Predicate> post = {Predicate::Int(1, CmpOp::kGe, 5)};

  PlanBuilder b;
  int sel = b.Select(b.Scan(&t, "t"), pre);
  int gb = b.GroupBy(sel, agg);
  int root = b.Select(gb, post);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());
  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, CaptureOptions::Inject(), &res).ok());

  // Independent per-operator execution with capture.
  SelectResult r1 = SelectExec(t, "t", pre, CaptureOptions::Inject());
  GroupByResult r2 =
      GroupByExec(r1.output, "mid", agg, CaptureOptions::Inject());
  SelectResult r3 =
      SelectExec(r2.output, "mid2", post, CaptureOptions::Inject());

  // Brute-force join of the three backward fragments.
  auto composed_bw =
      ComposeBackward(r3.lineage.input(0).backward,
                      ComposeBackward(r2.lineage.input(0).backward,
                                      r1.lineage.input(0).backward));
  EXPECT_EQ(Edges(res.lineage.input(0).backward), Edges(composed_bw));

  auto composed_fw =
      ComposeForward(r1.lineage.input(0).forward,
                     ComposeForward(r2.lineage.input(0).forward,
                                    r3.lineage.input(0).forward));
  EXPECT_EQ(Edges(res.lineage.input(0).forward), Edges(composed_fw));

  // Round trip: the plan's composed pair must be mutual inverses.
  EXPECT_TRUE(AreInverse(res.lineage.input(0).backward,
                         res.lineage.input(0).forward));

  // And composition must be associative: (r3 ∘ r2) ∘ r1 == r3 ∘ (r2 ∘ r1).
  auto left_assoc =
      ComposeBackward(ComposeBackward(r3.lineage.input(0).backward,
                                      r2.lineage.input(0).backward),
                      r1.lineage.input(0).backward);
  EXPECT_EQ(Edges(left_assoc), Edges(composed_bw));
}

}  // namespace
}  // namespace smoke
