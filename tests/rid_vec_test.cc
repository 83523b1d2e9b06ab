#include "common/rid_vec.h"

#include <gtest/gtest.h>

namespace smoke {
namespace {

TEST(RidVecTest, StartsEmpty) {
  RidVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(RidVecTest, InitialCapacityIsTen) {
  RidVec v;
  v.PushBack(1);
  EXPECT_EQ(v.capacity(), RidVec::kInitialCapacity);
  EXPECT_EQ(v.capacity(), 10u);
}

TEST(RidVecTest, GrowsByOnePointFive) {
  RidVec v;
  for (int i = 0; i < 11; ++i) v.PushBack(static_cast<rid_t>(i));
  // 10 -> 10 + 5 + 1 = 16.
  EXPECT_EQ(v.capacity(), 16u);
  for (int i = 11; i < 17; ++i) v.PushBack(static_cast<rid_t>(i));
  EXPECT_EQ(v.capacity(), 25u);  // 16 + 8 + 1
}

TEST(RidVecTest, PushBackPreservesValues) {
  RidVec v;
  for (rid_t i = 0; i < 1000; ++i) v.PushBack(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  for (rid_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 3);
}

TEST(RidVecTest, ReserveIsExact) {
  RidVec v(137);
  EXPECT_EQ(v.capacity(), 137u);
  EXPECT_EQ(v.size(), 0u);
}

TEST(RidVecTest, ReserveAvoidsReallocation) {
  RidVec v;
  v.Reserve(1000);
  uint32_t before = v.realloc_count();
  for (rid_t i = 0; i < 1000; ++i) v.PushBack(i);
  EXPECT_EQ(v.realloc_count(), before);  // no further reallocation
}

TEST(RidVecTest, UnreservedIncursReallocations) {
  RidVec v;
  for (rid_t i = 0; i < 1000; ++i) v.PushBack(i);
  EXPECT_GT(v.realloc_count(), 5u);
}

TEST(RidVecTest, ReserveSmallerIsNoop) {
  RidVec v(100);
  v.Reserve(10);
  EXPECT_EQ(v.capacity(), 100u);
}

TEST(RidVecTest, CopyPreservesContent) {
  RidVec v;
  for (rid_t i = 0; i < 50; ++i) v.PushBack(i);
  RidVec w(v);
  ASSERT_EQ(w.size(), 50u);
  for (rid_t i = 0; i < 50; ++i) EXPECT_EQ(w[i], i);
  // Deep copy: mutating w does not affect v.
  w[0] = 99;
  EXPECT_EQ(v[0], 0u);
}

TEST(RidVecTest, MoveTransfersOwnership) {
  RidVec v;
  for (rid_t i = 0; i < 50; ++i) v.PushBack(i);
  const rid_t* data = v.data();
  RidVec w(std::move(v));
  EXPECT_EQ(w.data(), data);
  EXPECT_EQ(w.size(), 50u);
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(RidVecTest, MoveAssignReleasesOld) {
  RidVec v;
  v.PushBack(1);
  RidVec w;
  w.PushBack(2);
  w = std::move(v);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 1u);
}

TEST(RidVecTest, ClearKeepsCapacity) {
  RidVec v;
  for (rid_t i = 0; i < 20; ++i) v.PushBack(i);
  size_t cap = v.capacity();
  v.Clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), cap);
}

TEST(RidVecTest, IterationMatchesIndexing) {
  RidVec v;
  for (rid_t i = 0; i < 30; ++i) v.PushBack(i + 7);
  rid_t expect = 7;
  for (rid_t x : v) EXPECT_EQ(x, expect++);
}

TEST(RidVecTest, MemoryBytesTracksCapacity) {
  RidVec v(64);
  EXPECT_EQ(v.MemoryBytes(), 64 * sizeof(rid_t));
}

TEST(RidVecTest, HeaderIs24Bytes) { EXPECT_EQ(sizeof(RidVec), 24u); }

TEST(RidVecTest, ShrinkToFitDropsSlackAndSkipsExactLists) {
  RidVec v;
  for (rid_t i = 0; i < 11; ++i) v.PushBack(i);
  ASSERT_EQ(v.capacity(), 16u);
  const uint32_t grown = v.realloc_count();
  v.ShrinkToFit();
  EXPECT_EQ(v.capacity(), 11u);
  EXPECT_EQ(v.realloc_count(), grown + 1);
  for (rid_t i = 0; i < 11; ++i) EXPECT_EQ(v[i], i);
  v.ShrinkToFit();  // already exact: untouched
  EXPECT_EQ(v.realloc_count(), grown + 1);

  RidVec exact(3);  // a cardinality-hinted list filled to its hint
  for (rid_t i = 0; i < 3; ++i) exact.PushBack(i);
  exact.ShrinkToFit();
  EXPECT_EQ(exact.realloc_count(), 1u);

  RidVec cleared;
  cleared.PushBack(1);
  cleared.Clear();
  cleared.ShrinkToFit();
  EXPECT_EQ(cleared.capacity(), 0u);
  EXPECT_EQ(cleared.MemoryBytes(), 0u);
}

class RidVecGrowthSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RidVecGrowthSweep, SizeAlwaysLeCapacityAndContentStable) {
  const size_t n = GetParam();
  RidVec v;
  for (size_t i = 0; i < n; ++i) {
    v.PushBack(static_cast<rid_t>(i ^ 0x5a5a));
    ASSERT_LE(v.size(), v.capacity());
  }
  ASSERT_EQ(v.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(v[i], static_cast<rid_t>(i ^ 0x5a5a));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RidVecGrowthSweep,
                         ::testing::Values(0, 1, 9, 10, 11, 100, 1337, 10000));

}  // namespace
}  // namespace smoke
