// The crossfilter brush strategies of Figures 13–14 (bench/crossfilter_modes.h)
// — Lazy, BT, DataCube, the engine's BT+FT (Plan) and the Listing 1
// reference loop — each checked against a brute-force count over the
// Ontime table.
#include "crossfilter_modes.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace smoke {
namespace {

using bench::BrushCounts;
using bench::BrushMode;
using bench::CrossfilterModes;
using bench::kCrossfilterDims;
using bench::kNumCrossfilterViews;

class CrossfilterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Table(ontime::Generate(20000, 5));
    modes_ = new CrossfilterModes(*data_, CaptureOptions::Inject());
    modes_->BuildCubes();
    modes_->DecodeListing1();
  }
  static void TearDownTestSuite() {
    delete modes_;
    delete data_;
  }

  /// Initial COUNT(*) of bar `bar` of view `v`.
  static int64_t BarCount(size_t v, size_t bar) {
    return modes_->view(v).output.column(1).ints()[bar];
  }

  /// Brute force: every other view recounted over the table rows whose
  /// view-`v` bin is that of bar `bar`.
  static BrushCounts BruteForce(size_t v, size_t bar) {
    BrushCounts ref(kNumCrossfilterViews);
    const auto& sel = data_->column(kCrossfilterDims[v]).ints();
    const int64_t bin = modes_->BinOf(v, static_cast<rid_t>(bar));
    for (size_t r = 0; r < data_->num_rows(); ++r) {
      if (sel[r] != bin) continue;
      for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
        if (w != v) ++ref[w][data_->column(kCrossfilterDims[w]).ints()[r]];
      }
    }
    return ref;
  }

  static Table* data_;
  static CrossfilterModes* modes_;
};
Table* CrossfilterTest::data_ = nullptr;
CrossfilterModes* CrossfilterTest::modes_ = nullptr;

TEST_F(CrossfilterTest, InitialCountsSumToRows) {
  for (size_t v = 0; v < kNumCrossfilterViews; ++v) {
    int64_t total = 0;
    for (size_t b = 0; b < modes_->NumBars(v); ++b) total += BarCount(v, b);
    EXPECT_EQ(total, static_cast<int64_t>(data_->num_rows()));
  }
}

TEST_F(CrossfilterTest, ViewCardinalitiesMatchGenerator) {
  EXPECT_LE(modes_->NumBars(0), static_cast<size_t>(ontime::kNumAirports));
  EXPECT_LE(modes_->NumBars(1), static_cast<size_t>(ontime::kNumDateBins));
  EXPECT_LE(modes_->NumBars(2), static_cast<size_t>(ontime::kNumDelayBins));
  EXPECT_LE(modes_->NumBars(3), static_cast<size_t>(ontime::kNumCarriers));
  EXPECT_GT(modes_->NumBars(0), 100u);  // most airports appear
}

TEST_F(CrossfilterTest, AllStrategiesAgree) {
  const std::vector<BrushMode> modes = {modes_->Lazy(), modes_->BT(),
                                        modes_->DataCube(), modes_->Plan(),
                                        modes_->BTFT()};
  // A sample of bars in every view, each mode against the brute force.
  for (size_t v = 0; v < kNumCrossfilterViews; ++v) {
    const size_t step = std::max<size_t>(1, modes_->NumBars(v) / 7);
    for (size_t bar = 0; bar < modes_->NumBars(v); bar += step) {
      const BrushCounts ref = BruteForce(v, bar);
      for (const BrushMode& mode : modes) {
        BrushCounts got;
        ASSERT_TRUE(mode.brush(v, static_cast<rid_t>(bar), &got).ok())
            << mode.name;
        ASSERT_EQ(got, ref) << mode.name << " view " << v << " bar " << bar;
      }
    }
  }
}

TEST_F(CrossfilterTest, BrushCountsSumToBarCount) {
  const BrushMode plan = modes_->Plan();
  for (size_t bar = 0; bar < modes_->NumBars(3); ++bar) {
    BrushCounts got;
    ASSERT_TRUE(plan.brush(3, static_cast<rid_t>(bar), &got).ok());
    for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
      if (w == 3) continue;
      int64_t total = 0;
      for (const auto& [bin, cnt] : got[w]) total += cnt;
      ASSERT_EQ(total, BarCount(3, bar));
    }
  }
}

TEST_F(CrossfilterTest, IndexMemoryReported) {
  for (size_t v = 0; v < kNumCrossfilterViews; ++v) {
    EXPECT_GT(modes_->view(v).lineage.MemoryBytes(), 0u);
  }
  CrossfilterModes lazy(*data_, CaptureOptions::None());
  for (size_t v = 0; v < kNumCrossfilterViews; ++v) {
    EXPECT_EQ(lazy.view(v).lineage.MemoryBytes(), 0u);
  }
}

}  // namespace
}  // namespace smoke
