#include "lineage/rid_index.h"

#include <gtest/gtest.h>

#include "capture/cube_index.h"
#include "lineage/partitioned_rid_index.h"
#include "lineage/query_lineage.h"
#include "query/lineage_query.h"
#include "storage/table.h"

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

// The builder stays 1:1 until an input reaches a second output, and its
// promoted index equals appending straight into a RidIndex (consecutive
// repeats collapsed, as capture's forward lists are).
TEST(ForwardIndexBuilderTest, PromotesAtTheFirstSecondOutput) {
  const std::vector<std::pair<rid_t, rid_t>> one_to_one = {
      {0, 5}, {2, 7}, {0, 5}, {3, 1}};
  ForwardIndexBuilder narrow(4);
  for (auto [in, out] : one_to_one) narrow.Add(in, out);
  LineageIndex a = narrow.Finish();
  ASSERT_EQ(a.kind(), LineageIndex::Kind::kArray);
  EXPECT_EQ(a.array(), (RidArray{5, kInvalidRid, 7, 1}));

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
  ASSERT_EQ(b.kind(), LineageIndex::Kind::kIndex);
  for (rid_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::vector<rid_t>(b.index().list(i).begin(),
                                 b.index().list(i).end()),
              std::vector<rid_t>(want.list(i).begin(), want.list(i).end()))
        << i;
  }

  ForwardIndexBuilder lists(3);
  const rid_t two[] = {4, 8};
  lists.SetList(0, two, 1);
  lists.SetList(1, nullptr, 0);
  EXPECT_EQ(lists.Finish().kind(), LineageIndex::Kind::kArray);
  ForwardIndexBuilder promoted(3);
  promoted.SetList(0, two, 1);
  promoted.SetList(2, two, 2);
  LineageIndex c = promoted.Finish();
  ASSERT_EQ(c.kind(), LineageIndex::Kind::kIndex);
  EXPECT_EQ(c.index().list(0).size(), 1u);
  EXPECT_EQ(c.index().list(1).size(), 0u);
  EXPECT_EQ(c.index().list(2).size(), 2u);
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
