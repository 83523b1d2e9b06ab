// Linked brushing over retained plans: any view shape with lineage on the
// shared relation participates (ROADMAP "Crossfilter on plans"), and the
// direct index probe equals both a brute-force count over the base table
// and the compiled Trace∘Trace lineage query, over raw and adaptive-encoded
// indexes alike.
#include "apps/plan_crossfilter.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "lineage/store/lineage_store.h"
#include "query/lineage_query.h"
#include "query/trace_builder.h"
#include "test_util.h"

namespace smoke {
namespace {

constexpr int kA = 0;
constexpr int kB = 1;
constexpr int kV = 2;
constexpr int kC = 3;

Table MakeData(size_t n) {
  Schema s;
  s.AddField("a", DataType::kInt64);
  s.AddField("b", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  s.AddField("c", DataType::kInt64);
  Table t(s);
  std::mt19937 rng(7);
  std::uniform_int_distribution<int64_t> da(0, 4), db(0, 9), dc(0, 399);
  std::uniform_real_distribution<double> dv(0.0, 10.0);
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({da(rng), db(rng), dv(rng), dc(rng)});
  }
  return t;
}

LogicalPlan HistogramPlan(const Table* t, int col) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {col};
  spec.aggs = {AggSpec::Count("cnt")};
  int root = b.GroupBy(b.Scan(t, "base"), spec);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

/// Aggregate-over-aggregate: COUNT(*) per a, then COUNT(*) per cnt.
LogicalPlan RollupPlan(const Table* t) {
  PlanBuilder b;
  GroupBySpec per_a;
  per_a.keys = {kA};
  per_a.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(b.Scan(t, "base"), per_a);
  GroupBySpec by_cnt;
  by_cnt.keys = {1};  // (a, cnt) -> cnt
  by_cnt.aggs = {AggSpec::Count("n_bins")};
  int root = b.GroupBy(gb, by_cnt);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

/// Join of two aggregates over a *shared* scan (a DAG): COUNT per a joined
/// with SUM(v) per a.
LogicalPlan JoinOfAggregatesPlan(const Table* t) {
  PlanBuilder b;
  int scan = b.Scan(t, "base");
  GroupBySpec counts;
  counts.keys = {kA};
  counts.aggs = {AggSpec::Count("cnt")};
  int gb1 = b.GroupBy(scan, counts);
  GroupBySpec sums;
  sums.keys = {kA};
  sums.aggs = {AggSpec::Sum(ScalarExpr::Col(kV), "sum_v")};
  int gb2 = b.GroupBy(scan, sums);
  JoinSpec join;
  join.left_key = 0;
  join.right_key = 0;
  join.pk_build = true;
  int root = b.HashJoin(gb1, gb2, join);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(root, &plan).ok());
  return plan;
}

// vc has many rows, each reached by a few rows of any va/vb bar: brushes
// into it see first sights often, and repeat sights too.
const char* const kViews[] = {"va", "vb", "vc", "rollup", "joinagg"};

LogicalPlan ViewPlan(const Table* t, const std::string& view) {
  if (view == "va") return HistogramPlan(t, kA);
  if (view == "vb") return HistogramPlan(t, kB);
  if (view == "rollup") return RollupPlan(t);
  if (view == "vc") return HistogramPlan(t, kC);
  return JoinOfAggregatesPlan(t);
}

/// A view recomputed by brute force from its definition: the output row
/// every base row lands in, and the order in which the view's backward
/// lineage lists a bar's base rows (a group-by lists its rows in input
/// order; the rollup lists its first-level groups in their first-encounter
/// order, each group's rows in input order).
struct Reference {
  std::vector<rid_t> row_of;  ///< base row -> view output row
  std::vector<size_t> order;  ///< base row -> sort key within its bar
};

/// The view output row holding each value of its first (key) column.
std::unordered_map<int64_t, rid_t> RowByKey(const Table& out) {
  std::unordered_map<int64_t, rid_t> rows;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    rows.emplace(out.column(0).ints()[r], static_cast<rid_t>(r));
  }
  return rows;
}

Reference MakeReference(const Table& data, const std::string& view,
                        const Table& out) {
  const size_t n = data.num_rows();
  const auto& a = data.column(kA).ints();
  const auto& b = data.column(kB).ints();
  const auto& c = data.column(kC).ints();
  Reference ref;
  const auto by_key = RowByKey(out);
  ref.row_of.resize(n);
  ref.order.resize(n);
  std::unordered_map<int64_t, int64_t> count_a;
  std::unordered_map<int64_t, size_t> first_a;
  for (size_t r = 0; r < n; ++r) {
    count_a[a[r]]++;
    first_a.emplace(a[r], first_a.size());
  }
  for (size_t r = 0; r < n; ++r) {
    int64_t key = a[r];                         // va, joinagg: key a
    if (view == "vb") key = b[r];               // vb: key b
    if (view == "vc") key = c[r];               // vc: key c
    if (view == "rollup") key = count_a[a[r]];  // rollup: key COUNT per a
    ref.row_of[r] = by_key.at(key);
    ref.order[r] = view == "rollup" ? first_a.at(a[r]) * n + r : r;
  }
  return ref;
}

/// The base rows of `bar` in `from`, in its backward lineage's order.
std::vector<rid_t> BarRows(const Reference& from, rid_t bar) {
  std::vector<rid_t> rows;
  for (size_t r = 0; r < from.row_of.size(); ++r) {
    if (from.row_of[r] == bar) rows.push_back(static_cast<rid_t>(r));
  }
  std::sort(rows.begin(), rows.end(), [&from](rid_t x, rid_t y) {
    return from.order[x] < from.order[y];
  });
  return rows;
}

/// Brute-force brush: `rows` forward-counted into `to` in first-seen order.
LinkedBrush BruteForceBrush(const std::vector<rid_t>& rows,
                            const Reference& to, const Table& to_out) {
  LinkedBrush lb;
  std::unordered_map<rid_t, size_t> slot;
  for (rid_t r : rows) {
    const rid_t t = to.row_of[r];
    auto [it, fresh] = slot.emplace(t, lb.rids.size());
    if (fresh) {
      lb.rids.push_back(t);
      lb.counts.push_back(0);
    }
    lb.counts[it->second]++;
  }
  SMOKE_CHECK(MaterializeRowsChecked(to_out, lb.rids, &lb.rows).ok());
  return lb;
}

/// The compiled-chain reference: Trace∘Trace as a lineage query plan, the
/// rows split off its rid column, and each row's witnesses counted from
/// the trace's own composed backward lineage to the relation.
LinkedBrush ChainBrush(const PlanResult& from, rid_t bar,
                       const PlanResult& to) {
  PlanResult pr;
  Status st =
      TraceBuilder::Backward(TraceSource::FromPlan(from), "base", {bar})
          .ThenForward(TraceSource::FromPlan(to))
          .Execute(CaptureOptions::Inject(), &pr);
  SMOKE_CHECK(st.ok());
  LinkedBrush lb;
  SMOKE_CHECK(SplitTraceRows(pr.output, &lb.rids, &lb.rows).ok());
  const int rel = pr.lineage.FindInput("base");
  SMOKE_CHECK(rel >= 0);
  const LineageIndex& bw = pr.lineage.input(static_cast<size_t>(rel)).backward;
  std::vector<rid_t> witnesses;
  for (size_t p = 0; p < lb.rids.size(); ++p) {
    witnesses.clear();
    bw.TraceInto(static_cast<rid_t>(p), &witnesses);
    lb.counts.push_back(static_cast<int64_t>(witnesses.size()));
  }
  return lb;
}

/// Bit-for-bit table equality: schema, then every column's payload.
bool SameTable(const Table& x, const Table& y) {
  if (x.num_columns() != y.num_columns() || x.num_rows() != y.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < x.num_columns(); ++c) {
    const Column& cx = x.column(c);
    const Column& cy = y.column(c);
    if (x.schema().field(c).name != y.schema().field(c).name ||
        cx.type() != cy.type()) {
      return false;
    }
    switch (cx.type()) {
      case DataType::kInt64:
        if (cx.ints() != cy.ints()) return false;
        break;
      case DataType::kFloat64:
        if (std::memcmp(cx.doubles().data(), cy.doubles().data(),
                        cx.doubles().size() * sizeof(double)) != 0) {
          return false;
        }
        break;
      case DataType::kString:
        if (cx.strings() != cy.strings()) return false;
        break;
    }
  }
  return true;
}

void ExpectSameBrush(const LinkedBrush& got, const LinkedBrush& want,
                     const std::string& what) {
  EXPECT_EQ(got.rids, want.rids) << what;
  EXPECT_EQ(got.counts, want.counts) << what;
  EXPECT_TRUE(SameTable(got.rows, want.rows)) << what;
}

class PlanCrossfilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(5000);
    session_ = std::make_unique<PlanCrossfilter>("base");
    for (const char* view : kViews) {
      const LogicalPlan plan = ViewPlan(&data_, view);
      ASSERT_TRUE(session_->AddView(view, plan).ok());
      // The same views retained directly, raw and adaptive-encoded.
      const CaptureOptions inject = CaptureOptions::Inject();
      ASSERT_TRUE(ExecutePlan(plan, inject, &raw_[view]).ok());
      ASSERT_TRUE(ExecutePlan(plan, inject, &adaptive_[view]).ok());
      EncodeQueryLineage(&adaptive_[view].lineage, LineageCodec::kAdaptive);
      refs_[view] = MakeReference(data_, view, raw_[view].output);
    }
  }

  /// Every view except `from`, as brush targets over `results`.
  static std::vector<BrushTarget> TargetsOf(
      const std::map<std::string, PlanResult>& results,
      const std::string& from) {
    std::vector<BrushTarget> targets;
    for (const char* view : kViews) {
      if (view != from) targets.push_back({view, &results.at(view)});
    }
    return targets;
  }

  Table data_;
  std::unique_ptr<PlanCrossfilter> session_;
  std::map<std::string, PlanResult> raw_;
  std::map<std::string, PlanResult> adaptive_;
  std::map<std::string, Reference> refs_;
};

// Every bar of every view, into every other view: the direct probe equals
// the brute-force count over the base table and the compiled TraceBuilder
// chain (rid order, counts, rows), over raw and adaptive-encoded indexes.
TEST_F(PlanCrossfilterTest, BrushEqualsBruteForceAndTraceChain) {
  // The encodings under test cover both ForEachRelated families: raw and
  // encoded, 1:1 arrays and 1:N posting lists.
  std::set<LineageIndex::Kind> kinds;
  for (const auto* results : {&raw_, &adaptive_}) {
    for (const auto& [view, r] : *results) {
      const TableLineage& tl = r.lineage.input(
          static_cast<size_t>(r.lineage.FindInput("base")));
      kinds.insert(tl.backward.kind());
      kinds.insert(tl.forward.kind());
    }
  }
  EXPECT_EQ(kinds, (std::set<LineageIndex::Kind>{
                       LineageIndex::Kind::kArray, LineageIndex::Kind::kIndex,
                       LineageIndex::Kind::kEncodedArray,
                       LineageIndex::Kind::kEncodedIndex}));

  size_t brushes = 0;
  for (const char* from : kViews) {
    const Table& from_out = raw_.at(from).output;
    for (rid_t bar = 0; bar < from_out.num_rows(); ++bar) {
      const std::vector<rid_t> bar_rows = BarRows(refs_.at(from), bar);
      std::map<std::string, LinkedBrush> session_brush;
      ASSERT_TRUE(session_->Brush(from, bar, &session_brush).ok());
      ASSERT_EQ(session_brush.size(), 4u);
      for (const auto* results : {&raw_, &adaptive_}) {
        const std::string codec = results == &raw_ ? "raw" : "adaptive";
        std::map<std::string, LinkedBrush> got;
        ASSERT_TRUE(BrushLinkedPlans(results->at(from), bar, "base",
                                     TargetsOf(*results, from), &got)
                        .ok());
        ASSERT_EQ(got.size(), 4u);
        for (const auto& [to, linked] : got) {
          const std::string what = codec + " " + from + "[" +
                                   std::to_string(bar) + "] -> " + to;
          ExpectSameBrush(linked,
                          BruteForceBrush(bar_rows, refs_.at(to),
                                          raw_.at(to).output),
                          what + " vs brute force");
          ExpectSameBrush(linked,
                          ChainBrush(results->at(from), bar, results->at(to)),
                          what + " vs TraceBuilder chain");
          ExpectSameBrush(linked, session_brush.at(to),
                          what + " vs PlanCrossfilter");
          ++brushes;
        }
      }
    }
  }
  EXPECT_GT(brushes, 0u);
}

// The brush reads a raw posting list in place and counts through a raw 1:1
// forward with its own loop; the encoded forms take the generic path. Both
// give the same LinkedBrush: one brush sends every bar into a raw target
// and its adaptive-encoded twin side by side, from a raw and from an
// encoded source.
TEST_F(PlanCrossfilterTest, EncodedAndRawForwardTargetsBrushIdentically) {
  auto forward_kind = [](const PlanResult& r) {
    return r.lineage.input(static_cast<size_t>(r.lineage.FindInput("base")))
        .forward.kind();
  };
  EXPECT_EQ(forward_kind(raw_.at("vc")), LineageIndex::Kind::kArray);
  EXPECT_EQ(forward_kind(adaptive_.at("vc")),
            LineageIndex::Kind::kEncodedArray);
  for (const char* from : kViews) {
    std::vector<BrushTarget> targets;
    for (const char* to : kViews) {
      if (std::strcmp(from, to) == 0) continue;
      targets.push_back({std::string("raw_") + to, &raw_.at(to)});
      targets.push_back({std::string("enc_") + to, &adaptive_.at(to)});
    }
    for (rid_t bar = 0; bar < raw_.at(from).output.num_rows(); ++bar) {
      std::map<std::string, LinkedBrush> in_place, copied;
      ASSERT_TRUE(
          BrushLinkedPlans(raw_.at(from), bar, "base", targets, &in_place)
              .ok());
      ASSERT_TRUE(
          BrushLinkedPlans(adaptive_.at(from), bar, "base", targets, &copied)
              .ok());
      for (const char* to : kViews) {
        if (std::strcmp(from, to) == 0) continue;
        const std::string what =
            std::string(from) + "[" + std::to_string(bar) + "] -> " + to;
        const LinkedBrush& want = in_place.at(std::string("raw_") + to);
        ExpectSameBrush(in_place.at(std::string("enc_") + to), want,
                        what + " encoded target");
        ExpectSameBrush(copied.at(std::string("raw_") + to), want,
                        what + " encoded source");
        ExpectSameBrush(copied.at(std::string("enc_") + to), want,
                        what + " encoded source and target");
      }
    }
  }
}

TEST_F(PlanCrossfilterTest, GroupByViewsMatchBruteForceCounts) {
  // Histogram views against a count over the base table: va's bins in
  // first-encounter order, and each va bar's rows counted per b bin.
  const auto& a = data_.column(kA).ints();
  const auto& b = data_.column(kB).ints();
  std::vector<int64_t> first_seen;
  for (int64_t x : a) {
    if (std::find(first_seen.begin(), first_seen.end(), x) ==
        first_seen.end()) {
      first_seen.push_back(x);
    }
  }
  const Table* va = nullptr;
  const Table* vb = nullptr;
  ASSERT_TRUE(session_->ViewOutput("va", &va).ok());
  ASSERT_TRUE(session_->ViewOutput("vb", &vb).ok());
  ASSERT_EQ(va->column(0).ints(), first_seen);

  for (size_t bar = 0; bar < va->num_rows(); ++bar) {
    std::map<int64_t, int64_t> ref;
    int64_t bar_rows = 0;
    for (size_t r = 0; r < data_.num_rows(); ++r) {
      if (a[r] != first_seen[bar]) continue;
      ++ref[b[r]];
      ++bar_rows;
    }

    std::map<std::string, PlanCrossfilter::Linked> brush;
    ASSERT_TRUE(session_->Brush("va", static_cast<rid_t>(bar), &brush).ok());
    const auto& linked = brush.at("vb");
    ASSERT_EQ(linked.rids.size(), linked.counts.size());
    std::map<int64_t, int64_t> got;
    int64_t total = 0;
    for (size_t i = 0; i < linked.rids.size(); ++i) {
      got[vb->column(0).ints()[linked.rids[i]]] += linked.counts[i];
      total += linked.counts[i];
    }
    EXPECT_EQ(got, ref) << "bar " << bar;
    // Every row of the bar is linked once: totals equal its cardinality.
    EXPECT_EQ(total, bar_rows);
    EXPECT_EQ(total, va->column(1).ints()[bar]);
  }
}

TEST_F(PlanCrossfilterTest, NonSpjaViewsParticipateInBrushing) {
  const Table* va = nullptr;
  ASSERT_TRUE(session_->ViewOutput("va", &va).ok());

  std::map<std::string, PlanCrossfilter::Linked> brush;
  ASSERT_TRUE(session_->Brush("va", 0, &brush).ok());
  const int64_t bar_count = va->column(1).ints()[0];

  // Rollup: every base row of the brushed bar reaches exactly one rollup
  // output, so witness counts sum to the bar cardinality.
  const auto& rollup = brush.at("rollup");
  EXPECT_GT(rollup.rids.size(), 0u);
  int64_t rollup_total = 0;
  for (int64_t c : rollup.counts) rollup_total += c;
  EXPECT_EQ(rollup_total, bar_count);

  // Join of aggregates: the brushed bar's rows share one `a` value, so they
  // link to exactly one join output row, with full multiplicity.
  const auto& joined = brush.at("joinagg");
  ASSERT_EQ(joined.rids.size(), 1u);
  EXPECT_EQ(joined.counts[0], bar_count);
  EXPECT_EQ(joined.rows.num_rows(), 1u);

  // Brushing *from* the rollup (a retained non-SPJA plan) works too: the
  // rollup bin covering bar 0's count links back to histogram bars.
  std::map<std::string, PlanCrossfilter::Linked> back;
  ASSERT_TRUE(session_->Brush("rollup", 0, &back).ok());
  const auto& va_linked = back.at("va");
  EXPECT_GT(va_linked.rids.size(), 0u);
  const Table* rollup_out = nullptr;
  ASSERT_TRUE(session_->ViewOutput("rollup", &rollup_out).ok());
  // Each linked va bar is one of the bins aggregated into this rollup row:
  // its count must equal the rollup row's bin cardinality (the key).
  const int64_t bin_size = rollup_out->column(0).ints()[0];
  for (size_t i = 0; i < va_linked.rids.size(); ++i) {
    EXPECT_EQ(va_linked.counts[i], bin_size);
  }
}

TEST_F(PlanCrossfilterTest, RejectsViewsWithoutSharedLineage) {
  PlanCrossfilter other("elsewhere");
  EXPECT_FALSE(other.AddView("va", HistogramPlan(&data_, kA)).ok());

  // Pruned capture (no forward) is rejected up front, not at brush time.
  CaptureOptions no_fwd = CaptureOptions::Inject();
  no_fwd.capture_forward = false;
  PlanCrossfilter session("base");
  EXPECT_FALSE(session.AddView("va", HistogramPlan(&data_, kA), no_fwd).ok());

  EXPECT_FALSE(session_->Brush("nope", 0, nullptr).ok());
}

TEST_F(PlanCrossfilterTest, BrushErrorsReturnStatus) {
  std::map<std::string, PlanCrossfilter::Linked> out;
  const Table* va = nullptr;
  ASSERT_TRUE(session_->ViewOutput("va", &va).ok());
  const rid_t past_end = static_cast<rid_t>(va->num_rows());
  EXPECT_EQ(session_->Brush("va", past_end, &out).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(session_->Brush("nope", 0, &out).code(), Status::Code::kNotFound);

  // Hand-built target whose forward index stops short of the brushed bar's
  // relation rows: the probe reports the rid instead of reading past the
  // index, with the same status as the compiled chain.
  PlanResult short_fw;
  ASSERT_TRUE(
      MaterializeRowsChecked(raw_.at("vb").output, {0, 1}, &short_fw.output)
          .ok());
  TableLineage& tl = short_fw.lineage.AddInput("base", &data_);
  tl.forward = LineageIndex::FromArray(RidArray(3, 0));
  short_fw.lineage.set_output_cardinality(2);
  const PlanResult& from = raw_.at("va");
  Status st = BrushLinkedPlans(from, 0, "base", {{"short", &short_fw}}, &out);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  PlanResult chained;
  Status chain_st =
      TraceBuilder::Backward(TraceSource::FromPlan(from), "base", {0})
          .ThenForward(TraceSource::FromPlan(short_fw))
          .Execute(CaptureOptions::Inject(), &chained);
  EXPECT_EQ(st.code(), chain_st.code()) << chain_st.ToString();

  // A forward edge past the target's output rows is refused too.
  tl.forward = LineageIndex::FromArray(RidArray(data_.num_rows(), 7));
  st = BrushLinkedPlans(from, 0, "base", {{"past", &short_fw}}, &out);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();

  // Bit-packed forwards are counted by code: kInvalidRid positions reach
  // nothing, and a row past the output is refused whether the frame is
  // narrow enough to count by code (row 2 of 2) or is counted by row
  // (row 7).
  RidArray mixed(data_.num_rows());
  for (size_t r = 0; r < mixed.size(); ++r) {
    mixed[r] = r % 3 == 0 ? kInvalidRid : static_cast<rid_t>(r % 2);
  }
  tl.forward = LineageIndex::FromArray(mixed);
  ASSERT_TRUE(BrushLinkedPlans(from, 0, "base", {{"raw", &short_fw}}, &out)
                  .ok());
  const LinkedBrush want = out.at("raw");
  tl.forward = LineageIndex::FromEncodedArray(
      EncodedRidArray::Encode(mixed, LineageCodec::kAdaptive));
  ASSERT_EQ(tl.forward.encoded_array().encoding(), RidSetEncoding::kPacked);
  ASSERT_TRUE(BrushLinkedPlans(from, 0, "base", {{"packed", &short_fw}},
                               &out)
                  .ok());
  ExpectSameBrush(out.at("packed"), want, "packed forward");
  for (rid_t past : {rid_t{2}, rid_t{7}}) {
    RidArray bad = mixed;
    for (rid_t& r : bad) {
      if (r == 1) r = past;
    }
    tl.forward = LineageIndex::FromEncodedArray(
        EncodedRidArray::Encode(bad, LineageCodec::kAdaptive));
    ASSERT_EQ(tl.forward.encoded_array().encoding(), RidSetEncoding::kPacked);
    st = BrushLinkedPlans(from, 0, "base", {{"past", &short_fw}}, &out);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("traced rid " + std::to_string(past)),
              std::string::npos)
        << st.ToString();
  }

  // Evicted or missing lineage on the shared relation.
  tl.forward = LineageIndex();
  short_fw.lineage.set_evicted(true);
  st = BrushLinkedPlans(from, 0, "base", {{"evicted", &short_fw}}, &out);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("evicted"), std::string::npos) << st.ToString();
  EXPECT_EQ(BrushLinkedPlans(from, 0, "elsewhere", {}, &out).code(),
            Status::Code::kNotFound);

  // A backward list that is not ascending is deduplicated in first-seen
  // order without the relation table (a hand-built source has none), while
  // BackwardRidsChecked refuses to deduplicate over an unknown table.
  PlanResult no_table;
  RidIndex bw(1);
  bw.Append(0, 2);
  bw.Append(0, 1);
  bw.Append(0, 2);
  no_table.lineage.AddInput("base", nullptr).backward =
      LineageIndex::FromIndex(std::move(bw));
  PlanResult target;
  ASSERT_TRUE(
      MaterializeRowsChecked(raw_.at("vb").output, {0, 1}, &target.output)
          .ok());
  target.lineage.AddInput("base", nullptr).forward =
      LineageIndex::FromArray(RidArray{0, 0, 1});
  target.lineage.set_output_cardinality(2);
  st = BrushLinkedPlans(no_table, 0, "base", {{"t", &target}}, &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.at("t").rids, (std::vector<rid_t>{1, 0}));
  EXPECT_EQ(out.at("t").counts, (std::vector<int64_t>{1, 1}));
  std::vector<rid_t> rids;
  EXPECT_EQ(BackwardRidsChecked(no_table.lineage, "base", {0},
                                /*dedup=*/true, &rids)
                .code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace smoke
