#include "query/consuming.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "query/lazy.h"
#include "query/lineage_query.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

using testing::GroupedRows;

class ConsumingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new tpch::Database(tpch::Generate(0.01));
    q1_ = new SPJAQuery(tpch::MakeQ1(*db_));
    base_ = new SPJAResult(SPJAExec(*q1_, CaptureOptions::Inject()));
  }
  static void TearDownTestSuite() {
    delete base_;
    delete q1_;
    delete db_;
  }
  static tpch::Database* db_;
  static SPJAQuery* q1_;
  static SPJAResult* base_;
};
tpch::Database* ConsumingTest::db_ = nullptr;
SPJAQuery* ConsumingTest::q1_ = nullptr;
SPJAResult* ConsumingTest::base_ = nullptr;

TEST_F(ConsumingTest, Q1aIndexedMatchesLazy) {
  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    const RidVec& rids =
        base_->lineage.input(0).backward.index().list(oid);
    auto indexed = ConsumingOverRids(db_->lineitem, q1a, rids);
    auto preds = LazyBackwardPredicates(*q1_, base_->output, oid);
    auto lazy = ConsumingLazy(db_->lineitem, preds, q1a);
    ASSERT_EQ(GroupedRows(indexed.output, 2), GroupedRows(lazy.output, 2))
        << "group " << oid;
  }
}

TEST_F(ConsumingTest, Q1aGroupsByYearMonth) {
  ConsumingSpec q1a = tpch::MakeQ1a(*db_);
  const RidVec& rids = base_->lineage.input(0).backward.index().list(0);
  auto res = ConsumingOverRids(db_->lineitem, q1a, rids);
  EXPECT_GT(res.output.num_rows(), 12u);  // several year-month cells
  const auto& years = res.output.column(0).ints();
  const auto& months = res.output.column(1).ints();
  for (size_t g = 0; g < res.output.num_rows(); ++g) {
    EXPECT_GE(years[g], 1992);
    EXPECT_LE(years[g], 1998);
    EXPECT_GE(months[g], 1);
    EXPECT_LE(months[g], 12);
  }
}

TEST_F(ConsumingTest, Q1bFiltersApply) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "MAIL", "NONE");
  const RidVec& rids = base_->lineage.input(0).backward.index().list(1);
  auto res = ConsumingOverRids(db_->lineitem, q1b, rids);
  // Captured consuming lineage only contains MAIL/NONE rows.
  const auto& modes = db_->lineitem.column(tpch::kLShipmode).strings();
  const auto& instr = db_->lineitem.column(tpch::kLShipinstruct).strings();
  for (size_t g = 0; g < res.backward.size(); ++g) {
    for (rid_t r : res.backward.list(g)) {
      ASSERT_EQ(modes[r], "MAIL");
      ASSERT_EQ(instr[r], "NONE");
    }
  }
}

TEST_F(ConsumingTest, Q1cChainsOverQ1b) {
  ConsumingSpec q1b = tpch::MakeQ1b(*db_, "SHIP", "COLLECT COD");
  const RidVec& rids = base_->lineage.input(0).backward.index().list(0);
  auto q1b_res = ConsumingOverRids(db_->lineitem, q1b, rids);
  if (q1b_res.output.num_rows() == 0) GTEST_SKIP();
  // Q1c uses Q1b as its base query: trace back through Q1b's lineage.
  ConsumingSpec q1c = tpch::MakeQ1c(*db_, "SHIP", "COLLECT COD");
  const RidVec& sub = q1b_res.backward.list(0);
  auto q1c_res = ConsumingOverRids(db_->lineitem, q1c, sub);
  EXPECT_GT(q1c_res.output.num_rows(), 0u);
  // Q1c adds l_tax (x100): all values in [0, 8].
  const auto& tax = q1c_res.output.column(2).ints();
  for (size_t g = 0; g < q1c_res.output.num_rows(); ++g) {
    EXPECT_GE(tax[g], 0);
    EXPECT_LE(tax[g], 8);
  }
}

TEST_F(ConsumingTest, DataSkippingMatchesIndexed) {
  // Re-run the base query with skip partitioning on the Q1b attributes.
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
  auto skip_base = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  ASSERT_GT(skip_base.skip_dict.num_codes, 0u);

  for (const std::string& mode : {"MAIL", "RAIL"}) {
    for (const std::string& instr : {"NONE", "COLLECT COD"}) {
      ConsumingSpec q1b = tpch::MakeQ1b(*db_, mode, instr);
      uint32_t code = skip_base.skip_dict.CodeForString(
          mode + std::string("\x1f") + instr);
      ASSERT_NE(code, UINT32_MAX);
      for (rid_t oid = 0; oid < skip_base.output.num_rows(); ++oid) {
        auto skipping = ConsumingSkipping(db_->lineitem,
                                          skip_base.skip_index, oid, code,
                                          q1b);
        const RidVec& rids =
            base_->lineage.input(0).backward.index().list(oid);
        auto indexed = ConsumingOverRids(db_->lineitem, q1b, rids);
        ASSERT_EQ(GroupedRows(skipping.output, 2),
                  GroupedRows(indexed.output, 2))
            << mode << "/" << instr << " oid " << oid;
      }
    }
  }
}

TEST_F(ConsumingTest, SkipPartitionsCoverBackwardIndex) {
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode};
  auto skip_base = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  for (rid_t oid = 0; oid < skip_base.output.num_rows(); ++oid) {
    std::vector<rid_t> all;
    skip_base.skip_index.TraceAllInto(oid, &all);
    const RidVec& plain =
        base_->lineage.input(0).backward.index().list(oid);
    ASSERT_EQ(testing::Sorted(all), testing::Sorted(plain));
  }
}

TEST_F(ConsumingTest, AggPushdownCubeMatchesConsumingQuery) {
  // Push Q1a's (year, month) grouping into capture — here we use l_tax as
  // the cube dimension (Q1c's added group) for a single-column cube.
  SPJAPushdown push;
  push.cube_cols = {tpch::kLTax};
  push.cube_aggs = {AggSpec::Count("cnt"),
                    AggSpec::Sum(ScalarExpr::Col(tpch::kLQuantity), "sum_qty")};
  auto cube_base = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  ASSERT_TRUE(cube_base.cube.enabled());

  ConsumingSpec by_tax;
  by_tax.group_by = {GroupExpr::Scale100(tpch::kLTax, "l_tax_x100")};
  by_tax.aggs = push.cube_aggs;
  for (rid_t oid = 0; oid < cube_base.output.num_rows(); ++oid) {
    Table cube_table = cube_base.cube.GroupTable(oid);
    const RidVec& rids =
        base_->lineage.input(0).backward.index().list(oid);
    auto indexed = ConsumingOverRids(db_->lineitem, by_tax, rids);
    ASSERT_EQ(cube_table.num_rows(), indexed.output.num_rows());
    // Compare cell contents keyed by tax value.
    std::map<int64_t, std::pair<int64_t, double>> cube_cells, ref_cells;
    for (size_t i = 0; i < cube_table.num_rows(); ++i) {
      int64_t tax100 = static_cast<int64_t>(
          std::llround(std::get<double>(cube_table.GetValue(i, 0)) * 100));
      cube_cells[tax100] = {
          std::get<int64_t>(cube_table.GetValue(i, 1)),
          std::get<double>(cube_table.GetValue(i, 2))};
    }
    for (size_t i = 0; i < indexed.output.num_rows(); ++i) {
      ref_cells[std::get<int64_t>(indexed.output.GetValue(i, 0))] = {
          std::get<int64_t>(indexed.output.GetValue(i, 1)),
          std::get<double>(indexed.output.GetValue(i, 2))};
    }
    ASSERT_EQ(cube_cells.size(), ref_cells.size());
    for (const auto& [k, v] : ref_cells) {
      ASSERT_TRUE(cube_cells.count(k));
      ASSERT_EQ(cube_cells[k].first, v.first);
      ASSERT_NEAR(cube_cells[k].second, v.second, 1e-6);
    }
  }
}

TEST_F(ConsumingTest, SelectionPushdownGatesBackwardCapture) {
  SPJAPushdown push;
  push.sel_fact = {Predicate::Double(tpch::kLTax, CmpOp::kLt, 0.03)};
  auto res = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  const auto& tax = db_->lineitem.column(tpch::kLTax).doubles();
  const auto& bw = res.lineage.input(0).backward.index();
  size_t kept = 0;
  for (size_t g = 0; g < bw.size(); ++g) {
    for (rid_t r : bw.list(g)) {
      ASSERT_LT(tax[r], 0.03);
      ++kept;
    }
  }
  // Some rows filtered out of lineage but the query result is unchanged.
  size_t plain = 0;
  const auto& plain_bw = base_->lineage.input(0).backward.index();
  for (size_t g = 0; g < plain_bw.size(); ++g) plain += plain_bw.list(g).size();
  EXPECT_LT(kept, plain);
  EXPECT_EQ(GroupedRows(res.output, 2), GroupedRows(base_->output, 2));
}

TEST_F(ConsumingTest, LazyBackwardMatchesIndexBackward) {
  for (rid_t oid = 0; oid < base_->output.num_rows(); ++oid) {
    auto lazy = LazyBackwardRids(*q1_, base_->output, oid);
    const RidVec& idx = base_->lineage.input(0).backward.index().list(oid);
    ASSERT_EQ(testing::Sorted(lazy), testing::Sorted(idx));
  }
}

TEST_F(ConsumingTest, MaterializeRowsIsSecondaryIndexScan) {
  const RidVec& rids = base_->lineage.input(0).backward.index().list(0);
  std::vector<rid_t> vec(rids.begin(), rids.end());
  Table rows;
  ASSERT_TRUE(MaterializeRowsChecked(db_->lineitem, vec, &rows).ok());
  ASSERT_EQ(rows.num_rows(), vec.size());
  EXPECT_EQ(std::get<int64_t>(rows.GetValue(0, tpch::kLOrderkey)),
            std::get<int64_t>(
                db_->lineitem.GetValue(vec[0], tpch::kLOrderkey)));
}

}  // namespace
}  // namespace smoke
