// The capture-side substrate of TPC-H consuming queries: skip partitions,
// selection push-down into backward capture, lazy backward rids and the
// secondary index scan over a backward list. The drill-down queries
// themselves (Q1a/Q1b/Q1c through TraceBuilder) are checked against a
// brute-force scan in trace_api_test.
#include <gtest/gtest.h>

#include "query/lazy.h"
#include "query/lineage_query.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

using testing::GroupedRows;
using testing::Sorted;

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

  static const RidVec& BackwardList(rid_t oid) {
    return base_->lineage.input(0).backward.index().list(oid);
  }

  static tpch::Database* db_;
  static SPJAQuery* q1_;
  static SPJAResult* base_;
};
tpch::Database* ConsumingTest::db_ = nullptr;
SPJAQuery* ConsumingTest::q1_ = nullptr;
SPJAResult* ConsumingTest::base_ = nullptr;

TEST_F(ConsumingTest, SkipPartitionsCoverBackwardIndex) {
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode};
  auto skip_base = SPJAExec(*q1_, CaptureOptions::Inject(), &push);
  for (rid_t oid = 0; oid < skip_base.output.num_rows(); ++oid) {
    std::vector<rid_t> all;
    skip_base.skip_index.TraceAllInto(oid, &all);
    ASSERT_EQ(Sorted(all), Sorted(BackwardList(oid)));
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
    ASSERT_EQ(Sorted(lazy), Sorted(BackwardList(oid)));
  }
}

TEST_F(ConsumingTest, MaterializeRowsIsSecondaryIndexScan) {
  const RidVec& rids = BackwardList(0);
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
