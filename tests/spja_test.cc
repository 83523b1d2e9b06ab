#include "engine/spja.h"

#include <map>

#include <gtest/gtest.h>

#include "engine/group_by.h"
#include "test_util.h"
#include "workloads/tpch.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

using testing::Edges;
using testing::GroupedRows;

class SpjaTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { db_ = new tpch::Database(tpch::Generate(0.01)); }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static tpch::Database* db_;
};
tpch::Database* SpjaTpchTest::db_ = nullptr;

/// Independent Q1 evaluator: straightforward row-at-a-time over Values.
std::map<std::string, std::pair<int64_t, double>> ReferenceQ1(
    const tpch::Database& db) {
  std::map<std::string, std::pair<int64_t, double>> ref;  // key -> (count, sum_qty)
  const Table& l = db.lineitem;
  for (rid_t r = 0; r < l.num_rows(); ++r) {
    if (std::get<int64_t>(l.GetValue(r, tpch::kLShipdate)) > 19980902) continue;
    std::string key =
        std::get<std::string>(l.GetValue(r, tpch::kLReturnflag)) + "|" +
        std::get<std::string>(l.GetValue(r, tpch::kLLinestatus));
    auto& slot = ref[key];
    slot.first += 1;
    slot.second += std::get<double>(l.GetValue(r, tpch::kLQuantity));
  }
  return ref;
}

TEST_F(SpjaTpchTest, Q1MatchesReference) {
  auto q = tpch::MakeQ1(*db_);
  auto res = SPJAExec(q, CaptureOptions::None());
  auto ref = ReferenceQ1(*db_);
  ASSERT_EQ(res.output.num_rows(), ref.size());
  EXPECT_EQ(ref.size(), 4u);  // the four Q1 groups
  const auto& counts = res.output.column("count_order").ints();
  const auto& sum_qty = res.output.column("sum_qty").doubles();
  for (size_t g = 0; g < res.output.num_rows(); ++g) {
    std::string key =
        std::get<std::string>(res.output.GetValue(g, 0)) + "|" +
        std::get<std::string>(res.output.GetValue(g, 1));
    ASSERT_TRUE(ref.count(key)) << key;
    EXPECT_EQ(counts[g], ref[key].first);
    EXPECT_NEAR(sum_qty[g], ref[key].second, 1e-4);
  }
}

TEST_F(SpjaTpchTest, Q1InjectLineagePartitionsPassingRows) {
  auto q = tpch::MakeQ1(*db_);
  auto res = SPJAExec(q, CaptureOptions::Inject());
  const auto& bw = res.lineage.input(0).backward.index();
  const auto& ship = db_->lineitem.column(tpch::kLShipdate).ints();
  size_t total = 0;
  std::vector<int> seen(db_->lineitem.num_rows(), 0);
  for (size_t g = 0; g < bw.size(); ++g) {
    total += bw.list(g).size();
    for (rid_t r : bw.list(g)) {
      ASSERT_LE(ship[r], 19980902);  // only passing rows captured
      ++seen[r];
    }
  }
  for (rid_t r = 0; r < seen.size(); ++r) {
    ASSERT_EQ(seen[r], ship[r] <= 19980902 ? 1 : 0);
  }
  EXPECT_EQ(res.lineage.output_cardinality(), res.output.num_rows());
  EXPECT_TRUE(testing::AreInverse(res.lineage.input(0).backward,
                                  res.lineage.input(0).forward));
  (void)total;
}

TEST_F(SpjaTpchTest, Q1DeferMatchesInject) {
  auto q = tpch::MakeQ1(*db_);
  auto inj = SPJAExec(q, CaptureOptions::Inject());
  auto def = SPJAExec(q, CaptureOptions::Defer());
  EXPECT_EQ(GroupedRows(inj.output, 2), GroupedRows(def.output, 2));
  EXPECT_EQ(Edges(inj.lineage.input(0).backward),
            Edges(def.lineage.input(0).backward));
  EXPECT_EQ(Edges(inj.lineage.input(0).forward),
            Edges(def.lineage.input(0).forward));
}

TEST_F(SpjaTpchTest, Q1LogicIdxMatchesInject) {
  auto q = tpch::MakeQ1(*db_);
  auto inj = SPJAExec(q, CaptureOptions::Inject());
  auto idx = SPJAExec(q, CaptureOptions::Mode(CaptureMode::kLogicIdx));
  EXPECT_EQ(Edges(inj.lineage.input(0).backward),
            Edges(idx.lineage.input(0).backward));
  // Annotated relation is denormalized: one row per passing lineitem row.
  size_t passing = 0;
  for (int64_t d : db_->lineitem.column(tpch::kLShipdate).ints()) {
    passing += d <= 19980902;
  }
  EXPECT_EQ(idx.annotated.num_rows(), passing);
}

TEST_F(SpjaTpchTest, Q3JoinsAndGroups) {
  auto q = tpch::MakeQ3(*db_);
  auto res = SPJAExec(q, CaptureOptions::Inject());
  ASSERT_EQ(res.lineage.num_inputs(), 3u);
  EXPECT_GT(res.output.num_rows(), 0u);

  // Reference: every output group's backward lineage satisfies all filters
  // and join conditions, and the per-table lists are aligned.
  const auto& l_bw = res.lineage.input(0).backward.index();
  const auto& o_bw = res.lineage.input(1).backward.index();
  const auto& c_bw = res.lineage.input(2).backward.index();
  const auto& l_ok = db_->lineitem.column(tpch::kLOrderkey).ints();
  const auto& l_sd = db_->lineitem.column(tpch::kLShipdate).ints();
  const auto& o_ok = db_->orders.column(tpch::kOOrderkey).ints();
  const auto& o_od = db_->orders.column(tpch::kOOrderdate).ints();
  const auto& o_ck = db_->orders.column(tpch::kOCustkey).ints();
  const auto& c_ck = db_->customer.column(tpch::kCCustkey).ints();
  const auto& c_seg = db_->customer.column(tpch::kCMktsegment).strings();
  for (size_t g = 0; g < res.output.num_rows(); ++g) {
    ASSERT_EQ(l_bw.list(g).size(), o_bw.list(g).size());
    ASSERT_EQ(l_bw.list(g).size(), c_bw.list(g).size());
    for (size_t j = 0; j < l_bw.list(g).size(); ++j) {
      rid_t lr = l_bw.list(g)[j], orr = o_bw.list(g)[j], cr = c_bw.list(g)[j];
      ASSERT_EQ(l_ok[lr], o_ok[orr]);          // join witness
      ASSERT_EQ(o_ck[orr], c_ck[cr]);          // join witness
      ASSERT_GT(l_sd[lr], 19950315);           // fact filter
      ASSERT_LT(o_od[orr], 19950315);          // dim filter
      ASSERT_EQ(c_seg[cr], "BUILDING");        // dim filter
    }
  }
}

TEST_F(SpjaTpchTest, Q3AggregatesMatchBruteForce) {
  auto q = tpch::MakeQ3(*db_);
  auto res = SPJAExec(q, CaptureOptions::None());
  // Brute-force revenue per l_orderkey.
  std::map<int64_t, double> ref;
  const Table& l = db_->lineitem;
  const Table& o = db_->orders;
  const Table& c = db_->customer;
  std::map<int64_t, rid_t> orders_by_key, cust_by_key;
  for (rid_t r = 0; r < o.num_rows(); ++r) {
    orders_by_key[o.column(tpch::kOOrderkey).ints()[r]] = r;
  }
  for (rid_t r = 0; r < c.num_rows(); ++r) {
    cust_by_key[c.column(tpch::kCCustkey).ints()[r]] = r;
  }
  for (rid_t r = 0; r < l.num_rows(); ++r) {
    if (l.column(tpch::kLShipdate).ints()[r] <= 19950315) continue;
    auto oit = orders_by_key.find(l.column(tpch::kLOrderkey).ints()[r]);
    if (oit == orders_by_key.end()) continue;
    if (o.column(tpch::kOOrderdate).ints()[oit->second] >= 19950315) continue;
    auto cit = cust_by_key.find(o.column(tpch::kOCustkey).ints()[oit->second]);
    if (cit == cust_by_key.end()) continue;
    if (c.column(tpch::kCMktsegment).strings()[cit->second] != "BUILDING") {
      continue;
    }
    double rev = l.column(tpch::kLExtendedprice).doubles()[r] *
                 (1 - l.column(tpch::kLDiscount).doubles()[r]);
    ref[l.column(tpch::kLOrderkey).ints()[r]] += rev;
  }
  ASSERT_EQ(res.output.num_rows(), ref.size());
  const auto& keys = res.output.column(0).ints();
  const auto& revs = res.output.column("revenue").doubles();
  for (size_t g = 0; g < keys.size(); ++g) {
    ASSERT_NEAR(revs[g], ref.at(keys[g]), 1e-4);
  }
}

TEST_F(SpjaTpchTest, Q10FourTableLineage) {
  auto q = tpch::MakeQ10(*db_);
  auto res = SPJAExec(q, CaptureOptions::Inject());
  ASSERT_EQ(res.lineage.num_inputs(), 4u);
  EXPECT_GT(res.output.num_rows(), 0u);
  // Nation lineage: every witness's nation matches the group's n_name.
  const auto& n_bw = res.lineage.input(3).backward.index();
  const auto& n_name = db_->nation.column(tpch::kNName).strings();
  const auto& out_nation = res.output.column("n_name").strings();
  for (size_t g = 0; g < res.output.num_rows(); ++g) {
    for (rid_t nr : n_bw.list(g)) {
      ASSERT_EQ(n_name[nr], out_nation[g]);
    }
  }
}

TEST_F(SpjaTpchTest, Q12CaseAggregatesOverDimension) {
  auto q = tpch::MakeQ12(*db_);
  auto res = SPJAExec(q, CaptureOptions::None());
  // Groups: MAIL and SHIP.
  ASSERT_EQ(res.output.num_rows(), 2u);
  const auto& counts_hi = res.output.column("high_line_count").doubles();
  const auto& counts_lo = res.output.column("low_line_count").doubles();
  // Brute force.
  const Table& l = db_->lineitem;
  const Table& o = db_->orders;
  std::map<int64_t, rid_t> orders_by_key;
  for (rid_t r = 0; r < o.num_rows(); ++r) {
    orders_by_key[o.column(tpch::kOOrderkey).ints()[r]] = r;
  }
  std::map<std::string, std::pair<int64_t, int64_t>> ref;
  for (rid_t r = 0; r < l.num_rows(); ++r) {
    const std::string& mode = l.column(tpch::kLShipmode).strings()[r];
    if (mode != "MAIL" && mode != "SHIP") continue;
    int64_t cd = l.column(tpch::kLCommitdate).ints()[r];
    int64_t rd = l.column(tpch::kLReceiptdate).ints()[r];
    int64_t sd = l.column(tpch::kLShipdate).ints()[r];
    if (!(cd < rd && sd < cd && rd >= 19940101 && rd < 19950101)) continue;
    rid_t orr = orders_by_key.at(l.column(tpch::kLOrderkey).ints()[r]);
    const std::string& pri = o.column(tpch::kOOrderpriority).strings()[orr];
    bool high = pri == "1-URGENT" || pri == "2-HIGH";
    if (high) ++ref[mode].first;
    else ++ref[mode].second;
  }
  for (size_t g = 0; g < 2; ++g) {
    std::string mode = std::get<std::string>(res.output.GetValue(g, 0));
    EXPECT_EQ(static_cast<int64_t>(counts_hi[g]), ref[mode].first) << mode;
    EXPECT_EQ(static_cast<int64_t>(counts_lo[g]), ref[mode].second) << mode;
  }
}

TEST_F(SpjaTpchTest, RelationPruningSkipsTables) {
  auto q = tpch::MakeQ3(*db_);
  CaptureOptions opts = CaptureOptions::Inject();
  opts.only_relations = {"lineitem"};
  auto res = SPJAExec(q, opts);
  EXPECT_FALSE(res.lineage.input(0).backward.empty());
  EXPECT_TRUE(res.lineage.input(1).backward.empty());
  EXPECT_TRUE(res.lineage.input(2).backward.empty());
}

TEST_F(SpjaTpchTest, DirectionPruningSkipsForward) {
  auto q = tpch::MakeQ1(*db_);
  CaptureOptions opts = CaptureOptions::Inject();
  opts.capture_forward = false;
  auto res = SPJAExec(q, opts);
  EXPECT_FALSE(res.lineage.input(0).backward.empty());
  EXPECT_TRUE(res.lineage.input(0).forward.empty());
}

TEST(SpjaMicroTest, NoDimsMatchesGroupByExec) {
  Table t = MakeZipfTable(2000, 16, 1.0);
  SPJAQuery q;
  q.fact = &t;
  q.fact_name = "zipf";
  q.group_by = {ColRef::Fact(zipf_table::kZ)};
  q.aggs = {AggSpec::Count("cnt"),
            AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
  auto res = SPJAExec(q, CaptureOptions::Inject());
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = q.aggs;
  auto gb = GroupByExec(t, "zipf", spec, CaptureOptions::Inject());
  EXPECT_EQ(GroupedRows(res.output, 1), GroupedRows(gb.output, 1));
  EXPECT_EQ(Edges(res.lineage.input(0).backward),
            Edges(gb.lineage.input(0).backward));
}

// A block without aggregates (zero-width aggregate state) groups the same
// rows as the group-by kernel, with capture on and off.
TEST(SpjaMicroTest, ZeroAggregatesMatchGroupByExec) {
  Table t = MakeZipfTable(2000, 16, 1.0);
  SPJAQuery q;
  q.fact = &t;
  q.fact_name = "zipf";
  q.group_by = {ColRef::Fact(zipf_table::kZ)};
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  for (bool capture : {false, true}) {
    const CaptureOptions opts =
        capture ? CaptureOptions::Inject() : CaptureOptions::None();
    auto res = SPJAExec(q, opts);
    auto gb = GroupByExec(t, "zipf", spec, opts);
    ASSERT_EQ(res.output.num_columns(), 1u);
    EXPECT_EQ(res.output.column(0).ints(), gb.output.column(0).ints());
    if (capture) {
      EXPECT_EQ(Edges(res.lineage.input(0).backward),
                Edges(gb.lineage.input(0).backward));
    }
  }
}

}  // namespace
}  // namespace smoke
