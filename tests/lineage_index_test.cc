#include "lineage/rid_index.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "capture/cube_index.h"
#include "lineage/fragment_merge.h"
#include "lineage/partitioned_rid_index.h"
#include "lineage/query_lineage.h"
#include "lineage/store/lineage_store.h"
#include "query/lineage_query.h"
#include "storage/table.h"
#include "test_util.h"

namespace smoke {
namespace {

TEST(RidIndexTest, AppendAndTrace) {
  RidIndex idx(3);
  idx.Append(0, 5);
  idx.Append(0, 6);
  idx.Append(2, 7);
  EXPECT_EQ(idx.list(0).size(), 2u);
  EXPECT_EQ(idx.list(1).size(), 0u);
  EXPECT_EQ(idx.TotalEdges(), 3u);
}

TEST(RidIndexTest, FromListsAdoptsWithoutCopy) {
  std::vector<RidVec> lists(2);
  lists[0].PushBack(1);
  lists[1].PushBack(2);
  const rid_t* p = lists[0].data();
  RidIndex idx = RidIndex::FromLists(std::move(lists));
  EXPECT_EQ(idx.list(0).data(), p);  // no reallocation: reuse (P4)
}

TEST(LineageIndexTest, ArrayTraceSkipsInvalid) {
  RidArray arr = {3, kInvalidRid, 4};
  LineageIndex idx = LineageIndex::FromArray(std::move(arr));
  std::vector<rid_t> out;
  idx.TraceInto(0, &out);
  idx.TraceInto(1, &out);
  idx.TraceInto(2, &out);
  EXPECT_EQ(out, (std::vector<rid_t>{3, 4}));
  EXPECT_EQ(idx.TotalEdges(), 2u);
}

TEST(LineageIndexTest, EmptyKind) {
  LineageIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.TotalEdges(), 0u);
}

// The builder stays a dense 1:1 array until an input reaches a second
// output; that input gets an overflow list, and the result traces equal to
// appending straight into a RidIndex (consecutive repeats collapsed, as
// capture's forward lists are).
TEST(ForwardIndexBuilderTest, KeepsOverflowListsForInputsThatReachTwoOutputs) {
  const std::vector<std::pair<rid_t, rid_t>> one_to_one = {
      {0, 5}, {2, 7}, {0, 5}, {3, 1}};
  ForwardIndexBuilder narrow(4);
  for (auto [in, out] : one_to_one) narrow.Add(in, out);
  LineageIndex a = narrow.Finish();
  ASSERT_EQ(a.kind(), LineageIndex::Kind::kArray);
  EXPECT_EQ(a.array(), (RidArray{5, kInvalidRid, 7, 1}));
  EXPECT_EQ(a.ArrayNumValid(), 3u);  // the builder's count

  const std::vector<std::pair<rid_t, rid_t>> edges = {
      {0, 5}, {2, 7}, {0, 5}, {0, 6}, {2, 7}, {0, 5}, {3, 1}};
  ForwardIndexBuilder wide(4);
  RidIndex want(4);
  for (auto [in, out] : edges) {
    wide.Add(in, out);
    RidVec& l = want.list(in);
    if (l.empty() || l[l.size() - 1] != out) l.PushBack(out);
  }
  LineageIndex b = wide.Finish();
  ASSERT_EQ(b.kind(), LineageIndex::Kind::kSparseArray);
  EXPECT_EQ(b.sparse_array().num_overflow(), 1u);  // input 0 only
  EXPECT_FALSE(b.IsOneToOne());
  for (rid_t i = 0; i < 4; ++i) {
    std::vector<rid_t> got;
    b.TraceInto(i, &got);
    EXPECT_EQ(got, std::vector<rid_t>(want.list(i).begin(),
                                      want.list(i).end()))
        << i;
  }

  ForwardIndexBuilder lists(3);
  const rid_t two[] = {4, 8};
  lists.SetList(0, two, 1);
  lists.SetList(1, nullptr, 0);
  EXPECT_EQ(lists.Finish().kind(), LineageIndex::Kind::kArray);
  ForwardIndexBuilder overflow(3);
  overflow.SetList(0, two, 1);
  overflow.SetList(2, two, 2);
  LineageIndex c = overflow.Finish();
  ASSERT_EQ(c.kind(), LineageIndex::Kind::kSparseArray);
  EXPECT_EQ(testing::Edges(c), (std::vector<std::pair<rid_t, rid_t>>{
                                   {0, 4}, {2, 4}, {2, 8}}));
}

/// Every position's related rids, in stored order.
std::vector<std::vector<rid_t>> Lists(const LineageIndex& idx) {
  std::vector<std::vector<rid_t>> out(idx.size());
  for (rid_t i = 0; i < idx.size(); ++i) idx.TraceInto(i, &out[i]);
  return out;
}

/// `a` and `b` relate every position to the same rids in the same order.
::testing::AssertionResult SameTraces(const LineageIndex& a,
                                      const LineageIndex& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  std::vector<rid_t> ra, rb;
  for (rid_t i = 0; i < a.size(); ++i) {
    ra.clear();
    rb.clear();
    a.TraceInto(i, &ra);
    b.TraceInto(i, &rb);
    if (ra != rb) return ::testing::AssertionFailure() << "position " << i;
  }
  return ::testing::AssertionSuccess();
}

/// A seeded forward over `n` inputs: `num_valid` of them (a seeded choice)
/// reach an output, and `num_multi` of those reach two to four ascending
/// outputs. Edges go into the builder round by round (every input's first
/// output, then every second, ...) in a shuffled input order, with a
/// repeated edge now and then, so lists interleave as capture's do.
struct ForwardShape {
  ForwardIndexBuilder builder;
  RidIndex ref;
};
ForwardShape MakeForward(size_t n, size_t num_valid, size_t num_multi,
                         uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<rid_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  std::shuffle(inputs.begin(), inputs.end(), rng);
  inputs.resize(num_valid);
  std::vector<std::vector<rid_t>> outs(num_valid);
  for (size_t k = 0; k < num_valid; ++k) {
    const size_t m = k < num_multi ? 2 + rng() % 3 : 1;
    rid_t o = static_cast<rid_t>(rng() % 5000);
    for (size_t j = 0; j < m; ++j, o += 1 + rng() % 7) outs[k].push_back(o);
  }
  ForwardShape f{ForwardIndexBuilder(n), RidIndex(n)};
  for (size_t round = 0; round < 4; ++round) {
    for (size_t k = 0; k < num_valid; ++k) {
      if (round >= outs[k].size()) continue;
      const rid_t out = outs[k][round];
      f.builder.Add(inputs[k], out);
      if (rng() % 16 == 0) f.builder.Add(inputs[k], out);  // collapses
      f.ref.Append(inputs[k], out);
    }
  }
  f.ref.ShrinkToFit();
  return f;
}

// The frozen forward against a RidIndex of the same edges, over densities
// from empty to full and multi-output shares of none, Q12's (108 of 150k
// orders) and all: every accessor traces equal, the size is exact and no
// larger than the dense or 1:N form, refresh mutations and adaptive
// encoding give what they give on the RidIndex.
TEST(SparseRidArrayTest, FrozenForwardEqualsRidIndexOnEveryShape) {
  constexpr size_t kN = 150000;
  const size_t valid_counts[] = {0,          1,          kN / 200,
                                 kN * 29 / 100, kN * 47 / 100, kN};
  uint32_t seed = 1;
  for (size_t num_valid : valid_counts) {
    for (size_t multi : {size_t{0}, size_t{108}, kN}) {
      const size_t num_multi = std::min(multi, num_valid);
      SCOPED_TRACE("valid " + std::to_string(num_valid) + " multi " +
                   std::to_string(num_multi));
      ForwardShape shape = MakeForward(kN, num_valid, num_multi, seed++);
      const LineageIndex form = FreezeForward(shape.builder.Finish());
      const LineageIndex raw = LineageIndex::FromIndex(shape.ref);
      const auto want = Lists(raw);

      ASSERT_EQ(form.size(), kN);
      EXPECT_EQ(form.TotalEdges(), raw.TotalEdges());
      EXPECT_TRUE(SameTraces(form, raw));
      for (rid_t i = 0; i < kN; ++i) {
        std::vector<rid_t> each;
        form.ForEachRelated(i, [&each](rid_t r) { each.push_back(r); });
        ASSERT_EQ(each, want[i]) << i;
      }
      EXPECT_EQ(form.IsOneToOne(), num_multi == 0);
      // Dense from 47% up with no overflow; 1:N only when every input
      // reaches several outputs; sparse otherwise.
      EXPECT_EQ(form.kind(),
                num_multi == 0 && num_valid >= kN * 47 / 100
                    ? LineageIndex::Kind::kArray
                    : (num_multi == kN ? LineageIndex::Kind::kIndex
                                       : LineageIndex::Kind::kSparseArray));
      if (form.IsOneToOne()) {
        for (rid_t i = 0; i < kN; ++i) {
          ASSERT_EQ(form.ValueAt(i), want[i].empty() ? kInvalidRid : want[i][0])
              << i;
        }
      }

      // Exact size, never larger than the dense array (when 1:1) or the
      // RidIndex.
      size_t multi_edges = 0;
      for (const auto& l : want) multi_edges += l.size() > 1 ? l.size() : 0;
      size_t exact = 0;
      switch (form.kind()) {
        case LineageIndex::Kind::kArray:
          exact = kN * sizeof(rid_t);
          break;
        case LineageIndex::Kind::kSparseArray:
          exact = SparseRidArray::BytesFor(kN, num_valid, num_multi,
                                           multi_edges);
          break;
        case LineageIndex::Kind::kIndex:
          exact = kN * sizeof(RidVec) + raw.TotalEdges() * sizeof(rid_t);
          break;
        case LineageIndex::Kind::kNone:
        case LineageIndex::Kind::kEncodedArray:
        case LineageIndex::Kind::kEncodedIndex:
          FAIL() << "frozen into a non-raw form";
      }
      EXPECT_EQ(form.MemoryBytes(), exact);
      EXPECT_LE(form.MemoryBytes(), raw.MemoryBytes());
      if (num_multi == 0) {
        EXPECT_LE(form.MemoryBytes(), kN * sizeof(rid_t));
      }

      // Refresh mutations on the form equal the same mutation on the
      // RidIndex (the form widens once; the edges do not change).
      rid_t some_valid = kN, some_unset = kN;
      for (rid_t i = 0; i < kN; ++i) {
        rid_t& pick = want[i].empty() ? some_unset : some_valid;
        if (pick == kN) pick = i;
      }
      const rid_t d[] = {6001, 6002};
      auto mutate_both = [&](auto&& mutation) {
        LineageIndex a = form, b = raw;
        mutation(&a);
        mutation(&b);
        EXPECT_TRUE(SameTraces(a, b));
      };
      for (size_t len : {0, 1, 2}) {
        mutate_both([&](LineageIndex* idx) {
          AppendIndexList(idx, d, len, LineageCodec::kRaw);
        });
      }
      if (some_unset < kN) {
        mutate_both([&](LineageIndex* idx) {
          ExtendIndexList(idx, some_unset, d, 1, LineageCodec::kRaw);
        });
      }
      if (some_valid < kN) {
        const rid_t head = want[some_valid][0];
        mutate_both([&](LineageIndex* idx) {
          ExtendIndexList(idx, some_valid, d, 2, LineageCodec::kRaw);
        });
        const rid_t first = head == 0 ? 6001 : head - 1;  // lands first
        mutate_both([&](LineageIndex* idx) {
          InsertSortedIntoIndexList(idx, some_valid, first, LineageCodec::kRaw);
        });
      }

      // Adaptive encoding traces equal to encoding the reference, and
      // never makes the frozen form larger.
      const LineageIndex encoded =
          EncodeLineageCopy(form, LineageCodec::kAdaptive);
      EXPECT_TRUE(SameTraces(encoded,
                             EncodeLineageCopy(raw, LineageCodec::kAdaptive)));
      if (form.kind() == LineageIndex::Kind::kSparseArray) {
        EXPECT_LE(encoded.MemoryBytes(), form.MemoryBytes());
        EXPECT_LE(EncodeLineage(form, LineageCodec::kAdaptive).MemoryBytes(),
                  form.MemoryBytes());
      }
    }
  }
}

// Output rids at or above SparseRidArray::kOverflowTag cannot be slots:
// the builder, the freeze of a dense array and the narrowing of a RidIndex
// keep each in an overflow list of its own, so every form traces them as
// given, including a rid equal to the tag of an existing list.
TEST(SparseRidArrayTest, RidsAtOrAboveTheOverflowTagTraceAsGiven) {
  constexpr rid_t kTag = SparseRidArray::kOverflowTag;
  constexpr size_t kN = 1000;
  const std::vector<std::pair<rid_t, rid_t>> edges = {
      {3, kTag},   {5, kTag + 1}, {5, 7},    {9, 2},
      {7, 100},    {7, 200},      {3, kTag}, {7, kTag + 2},
      {200, kInvalidRid - 1}};
  ForwardIndexBuilder builder(kN);
  RidIndex want(kN);
  for (auto [in, out] : edges) {
    builder.Add(in, out);
    RidVec& l = want.list(in);
    if (l.empty() || l[l.size() - 1] != out) l.PushBack(out);
  }
  const LineageIndex ref = LineageIndex::FromIndex(want);
  const LineageIndex built = builder.Finish();
  ASSERT_EQ(built.kind(), LineageIndex::Kind::kSparseArray);
  EXPECT_TRUE(SameTraces(built, ref));
  EXPECT_EQ(built.TotalEdges(), ref.TotalEdges());
  const LineageIndex frozen = FreezeForward(built);
  EXPECT_EQ(frozen.kind(), LineageIndex::Kind::kSparseArray);
  EXPECT_TRUE(SameTraces(frozen, ref));
  const LineageIndex narrowed = FreezeForward(ref);
  EXPECT_EQ(narrowed.kind(), LineageIndex::Kind::kSparseArray);
  EXPECT_TRUE(SameTraces(narrowed, ref));
  EXPECT_TRUE(SameTraces(EncodeLineageCopy(narrowed, LineageCodec::kAdaptive),
                         ref));

  RidArray dense(kN, kInvalidRid);
  dense[3] = kTag;
  dense[9] = 2;
  dense[200] = kInvalidRid - 1;
  const LineageIndex array = LineageIndex::FromArray(dense);
  const LineageIndex sparse = FreezeForward(array);
  ASSERT_EQ(sparse.kind(), LineageIndex::Kind::kSparseArray);
  EXPECT_FALSE(sparse.IsOneToOne());  // two rids live in overflow lists
  EXPECT_TRUE(SameTraces(sparse, array));
  EXPECT_EQ(sparse.TotalEdges(), 3u);
  EXPECT_EQ(sparse.MemoryBytes(),
            SparseRidArray::BytesFor(kN, 3, 2, 2));

  ForwardIndexBuilder lists(4);
  const rid_t wide[] = {kTag + 3};
  lists.SetList(1, wide, 1);
  EXPECT_EQ(testing::Edges(lists.Finish()),
            (std::vector<std::pair<rid_t, rid_t>>{{1, kTag + 3}}));
}

TEST(LineageIndexTest, ShrinkToFitFreezesRawFormsExactly) {
  RidIndex idx(3);
  for (rid_t r = 0; r < 11; ++r) idx.Append(0, r);
  idx.Append(2, 4);
  LineageIndex li = LineageIndex::FromIndex(std::move(idx));
  li.ShrinkToFit();
  EXPECT_EQ(li.MemoryBytes(), 3 * sizeof(RidVec) + 12 * sizeof(rid_t));
  RidArray arr = {1, 2};
  arr.reserve(64);
  LineageIndex la = LineageIndex::FromArray(std::move(arr));
  la.ShrinkToFit();
  EXPECT_EQ(la.MemoryBytes(), 2 * sizeof(rid_t));
}

TEST(PartitionedRidIndexTest, AppendAndPartitionTrace) {
  PartitionedRidIndex idx(2, 3);
  idx.Append(0, 0, 10);
  idx.Append(0, 2, 11);
  idx.Append(1, 1, 12);
  EXPECT_EQ(idx.Partition(0, 0).size(), 1u);
  EXPECT_EQ(idx.Partition(0, 1).size(), 0u);
  EXPECT_EQ(idx.Partition(0, 2)[0], 11u);
  std::vector<rid_t> all;
  idx.TraceAllInto(0, &all);
  EXPECT_EQ(all, (std::vector<rid_t>{10, 11}));
  EXPECT_EQ(idx.TotalEdges(), 3u);
}

TEST(PartitionedRidIndexTest, AddOutputGrows) {
  PartitionedRidIndex idx;
  idx.SetNumCodes(4);
  EXPECT_EQ(idx.num_outputs(), 0u);
  idx.AddOutput();
  idx.AddOutput();
  EXPECT_EQ(idx.num_outputs(), 2u);
  idx.Append(1, 3, 9);
  EXPECT_EQ(idx.Partition(1, 3)[0], 9u);
}

TEST(QueryLineageTest, FindInputAndStability) {
  QueryLineage lineage;
  TableLineage& a = lineage.AddInput("a", nullptr);
  TableLineage& b = lineage.AddInput("b", nullptr);
  TableLineage& c = lineage.AddInput("c", nullptr);
  // References must stay valid across AddInput calls (deque-backed).
  a.backward = LineageIndex::FromArray({1});
  b.backward = LineageIndex::FromArray({2});
  c.backward = LineageIndex::FromArray({3});
  EXPECT_EQ(lineage.FindInput("b"), 1);
  EXPECT_EQ(lineage.FindInput("missing"), -1);
  EXPECT_EQ(lineage.input(0).backward.array()[0], 1u);
  EXPECT_EQ(lineage.input(2).backward.array()[0], 3u);
}

TEST(QueryLineageTest, MemoryAccounting) {
  QueryLineage lineage;
  TableLineage& a = lineage.AddInput("a", nullptr);
  RidIndex idx(10);
  for (int i = 0; i < 10; ++i) idx.Append(static_cast<size_t>(i), 1);
  a.backward = LineageIndex::FromIndex(std::move(idx));
  EXPECT_GT(lineage.MemoryBytes(), 10 * sizeof(rid_t));
}

TEST(LineageQueryTest, BackwardDedupPreservesFirstSeenOrder) {
  QueryLineage lineage;
  Schema s;
  s.AddField("x", DataType::kInt64);
  Table t(s);
  for (int i = 0; i < 5; ++i) t.AppendRow({int64_t{i}});
  TableLineage& tl = lineage.AddInput("t", &t);
  RidIndex idx(2);
  idx.Append(0, 3);
  idx.Append(0, 1);
  idx.Append(1, 1);
  idx.Append(1, 4);
  tl.backward = LineageIndex::FromIndex(std::move(idx));
  lineage.set_output_cardinality(2);

  std::vector<rid_t> dup, dedup;
  ASSERT_TRUE(
      BackwardRidsChecked(lineage, "t", {0, 1}, /*dedup=*/false, &dup).ok());
  EXPECT_EQ(dup, (std::vector<rid_t>{3, 1, 1, 4}));
  ASSERT_TRUE(
      BackwardRidsChecked(lineage, "t", {0, 1}, /*dedup=*/true, &dedup).ok());
  EXPECT_EQ(dedup, (std::vector<rid_t>{3, 1, 4}));
}

TEST(CubeIndexTest, IntKeyCells) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  t.AppendRow({int64_t{1}, 10.0});
  t.AppendRow({int64_t{2}, 20.0});
  t.AppendRow({int64_t{1}, 30.0});
  CubeIndex cube;
  cube.Init(t, {0}, {AggSpec::Count("c"), AggSpec::Sum(ScalarExpr::Col(1), "s")});
  cube.AddGroup();
  cube.Update(0, 0);
  cube.Update(0, 1);
  cube.Update(0, 2);
  Table out = cube.GroupTable(0);
  ASSERT_EQ(out.num_rows(), 2u);  // k=1 and k=2 cells
  // First-encounter order: k=1 first.
  EXPECT_EQ(out.column(0).ints()[0], 1);
  EXPECT_EQ(out.column(1).ints()[0], 2);           // count
  EXPECT_DOUBLE_EQ(out.column(2).doubles()[0], 40.0);  // sum
  EXPECT_GT(cube.MemoryBytes(), 0u);
}

TEST(CubeIndexTest, MultiGroupIsolation) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  Table t(s);
  t.AppendRow({int64_t{7}});
  t.AppendRow({int64_t{8}});
  CubeIndex cube;
  cube.Init(t, {0}, {AggSpec::Count("c")});
  cube.AddGroup();
  cube.AddGroup();
  cube.Update(0, 0);
  cube.Update(1, 1);
  EXPECT_EQ(cube.GroupTable(0).num_rows(), 1u);
  EXPECT_EQ(cube.GroupTable(1).num_rows(), 1u);
  EXPECT_EQ(cube.GroupTable(0).column(0).ints()[0], 7);
  EXPECT_EQ(cube.GroupTable(1).column(0).ints()[0], 8);
}

TEST(CubeIndexTest, StringKeyCells) {
  Schema s;
  s.AddField("k", DataType::kString);
  Table t(s);
  t.AppendRow({std::string("x")});
  t.AppendRow({std::string("y")});
  t.AppendRow({std::string("x")});
  CubeIndex cube;
  cube.Init(t, {0}, {AggSpec::Count("c")});
  cube.AddGroup();
  for (rid_t r = 0; r < 3; ++r) cube.Update(0, r);
  Table out = cube.GroupTable(0);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).strings()[0], "x");
  EXPECT_EQ(out.column(1).ints()[0], 2);
}

}  // namespace
}  // namespace smoke
