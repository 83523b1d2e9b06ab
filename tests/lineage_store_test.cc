// Engine-level tests of the compressed lineage store (lineage/store/):
//  - backward/forward/TraceBuilder results are bit-identical across codecs
//    {raw, range, bitmap, adaptive} and thread counts {1, 7} on the
//    zipf / ontime / TPC-H workload shapes the memory bench uses;
//  - the adaptive codec compresses the contiguous-selection series >= 4x;
//  - SetLineageBudget: capture succeeds under budget, stats stay under
//    budget, and traces on evicted queries answer via the lazy rescan;
//  - DropResult/DropTable/ReplaceTable release lineage store accounting
//    (LineageMemoryStats returns to baseline after drops).
#include <gtest/gtest.h>

#include <vector>

#include "core/smoke_engine.h"
#include "test_util.h"
#include "workloads/ontime.h"
#include "workloads/tpch.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

constexpr LineageCodec kAllCodecs[] = {
    LineageCodec::kRaw, LineageCodec::kRange, LineageCodec::kBitmap,
    LineageCodec::kAdaptive};
constexpr int kThreadCounts[] = {1, 7};

CaptureOptions Opts(LineageCodec codec, int threads) {
  CaptureOptions o = CaptureOptions::Inject();
  o.lineage_codec = codec;
  o.num_threads = threads;
  return o;
}

size_t StatBytes(const SmokeEngine& engine, const std::string& name) {
  for (const auto& q : engine.LineageMemoryStats().queries) {
    if (q.name == name) return q.bytes;
  }
  return 0;
}

/// One trace round over a retained query: backward (dup-preserving and
/// deduplicated), forward, and a typed TraceBackward — everything the
/// bit-identity claim covers.
struct TraceRound {
  std::vector<rid_t> bw_dups;
  std::vector<rid_t> bw_dedup;
  std::vector<rid_t> fw;
  std::vector<rid_t> trace_rids;
  std::multiset<std::string> trace_rows;

  static TraceRound Of(const SmokeEngine& engine, const std::string& query,
                       const std::string& relation,
                       const std::vector<rid_t>& out_rids,
                       const std::vector<rid_t>& in_rids) {
    TraceRound t;
    EXPECT_TRUE(
        engine.Backward(query, relation, out_rids, &t.bw_dups, false).ok());
    EXPECT_TRUE(
        engine.Backward(query, relation, out_rids, &t.bw_dedup, true).ok());
    TraceResult tr;
    EXPECT_TRUE(engine.TraceForward(query, relation, in_rids, &tr).ok());
    t.fw = tr.rids;
    EXPECT_TRUE(engine.TraceBackward(query, relation, out_rids, &tr).ok());
    t.trace_rids = tr.rids;
    t.trace_rows = testing::RowSet(tr.rows);
    return t;
  }

  void ExpectEq(const TraceRound& ref, const std::string& what) const {
    EXPECT_EQ(bw_dups, ref.bw_dups) << what;
    EXPECT_EQ(bw_dedup, ref.bw_dedup) << what;
    EXPECT_EQ(fw, ref.fw) << what;
    EXPECT_EQ(trace_rids, ref.trace_rids) << what;
    EXPECT_EQ(trace_rows, ref.trace_rows) << what;
  }
};

// ---- bit-identity across codecs and thread counts ----

/// Contiguous selection over the zipf table (the clustered series): one
/// range predicate keeps rids [5000, 15000), so backward/forward arrays are
/// single runs — the codec's best case, and the >= 4x acceptance series.
TEST(LineageStoreTest, ZipfContiguousSelectionBitIdentical) {
  Table zipf = MakeZipfTable(20000, 50, 1.0);

  const std::vector<rid_t> outs = {0, 1, 2, 9999, 5000};
  const std::vector<rid_t> ins = {5000, 5001, 14999, 0, 19999};

  TraceRound ref;
  size_t raw_bytes = 0, adaptive_bytes = 0;
  bool have_ref = false;
  for (LineageCodec codec : kAllCodecs) {
    for (int threads : kThreadCounts) {
      SmokeEngine engine;
      ASSERT_TRUE(engine.CreateTable("zipf", zipf).ok());
      const Table* t = nullptr;
      ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
      PlanBuilder b;
      int scan = b.Scan(t, "zipf");
      int sel = b.Select(
          scan, {Predicate::Int(zipf_table::kId, CmpOp::kGe, 5000),
                 Predicate::Int(zipf_table::kId, CmpOp::kLt, 15000)});
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(sel, &plan).ok());
      ASSERT_TRUE(engine.ExecutePlan("sel", plan, Opts(codec, threads)).ok());

      TraceRound got = TraceRound::Of(engine, "sel", "zipf", outs, ins);
      if (!have_ref) {
        ref = got;
        have_ref = true;
      } else {
        got.ExpectEq(ref, std::string("codec=") + LineageCodecName(codec) +
                              " threads=" + std::to_string(threads));
      }
      if (threads == 1) {
        if (codec == LineageCodec::kRaw) raw_bytes = StatBytes(engine, "sel");
        if (codec == LineageCodec::kAdaptive) {
          adaptive_bytes = StatBytes(engine, "sel");
        }
      }
    }
  }
  // The acceptance floor: adaptive encoding cuts the contiguous-selection
  // series' lineage memory by at least 4x vs raw.
  ASSERT_GT(raw_bytes, 0u);
  ASSERT_GT(adaptive_bytes, 0u);
  EXPECT_GE(raw_bytes, 4 * adaptive_bytes)
      << "raw=" << raw_bytes << " adaptive=" << adaptive_bytes;
}

/// Zipf group-by through the SPJA facade (sorted clustered postings), with
/// a consuming query stacked on the encoded indexes.
TEST(LineageStoreTest, ZipfGroupByBitIdenticalAndConsuming) {
  Table zipf = MakeZipfTable(12000, 40, 1.0);
  SPJAQuery query;
  query.fact_name = "zipf";
  query.group_by = {ColRef::Fact(zipf_table::kZ)};
  query.aggs = {AggSpec::Count("cnt"),
                AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};

  const std::vector<rid_t> outs = {0, 3, 7};
  const std::vector<rid_t> ins = {0, 17, 4242, 11999};

  TraceRound ref;
  std::map<std::string, std::string> consuming_ref;
  bool have_ref = false;
  for (LineageCodec codec : kAllCodecs) {
    for (int threads : kThreadCounts) {
      SmokeEngine engine;
      ASSERT_TRUE(engine.CreateTable("zipf", zipf).ok());
      const Table* t = nullptr;
      ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
      query.fact = t;
      ASSERT_TRUE(
          engine.ExecuteQuery("gb", query, Opts(codec, threads)).ok());

      TraceRound got = TraceRound::Of(engine, "gb", "zipf", outs, ins);
      // A consuming query over the encoded backward index: regroup group
      // 0's rows by id parity-ish derived key.
      TraceSource src;
      ASSERT_TRUE(engine.MakeTraceSource("gb", &src).ok());
      PlanResult consuming;
      ASSERT_TRUE(TraceBuilder::Backward(src, "zipf", {0})
                      .Filter(Predicate::Double(zipf_table::kV, CmpOp::kGe,
                                                25.0))
                      .GroupBy(GroupExpr::Raw(zipf_table::kZ, "z"))
                      .Agg(AggSpec::Count("cnt"))
                      .Execute(CaptureOptions::Inject(), &consuming)
                      .ok());
      auto consuming_rows = testing::GroupedRows(consuming.output, 1);

      if (!have_ref) {
        ref = got;
        consuming_ref = consuming_rows;
        have_ref = true;
      } else {
        const std::string what = std::string("codec=") +
                                 LineageCodecName(codec) +
                                 " threads=" + std::to_string(threads);
        got.ExpectEq(ref, what);
        EXPECT_EQ(consuming_rows, consuming_ref) << what;
      }
    }
  }
}

/// Ontime crossfilter shape: group flights by carrier via the plan API.
TEST(LineageStoreTest, OntimeGroupByBitIdentical) {
  Table flights = ontime::Generate(8000);
  GroupBySpec spec;
  spec.keys = {ontime::kCarrier};
  spec.aggs = {AggSpec::Count("cnt")};

  const std::vector<rid_t> outs = {0, 1, 5};
  const std::vector<rid_t> ins = {0, 123, 7999};

  TraceRound ref;
  bool have_ref = false;
  for (LineageCodec codec : kAllCodecs) {
    for (int threads : kThreadCounts) {
      SmokeEngine engine;
      ASSERT_TRUE(engine.CreateTable("flights", flights).ok());
      const Table* t = nullptr;
      ASSERT_TRUE(engine.GetTable("flights", &t).ok());
      PlanBuilder b;
      int root = b.GroupBy(b.Scan(t, "flights"), spec);
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(root, &plan).ok());
      ASSERT_TRUE(engine.ExecutePlan("bars", plan, Opts(codec, threads)).ok());
      TraceRound got = TraceRound::Of(engine, "bars", "flights", outs, ins);
      if (!have_ref) {
        ref = got;
        have_ref = true;
      } else {
        got.ExpectEq(ref, std::string("codec=") + LineageCodecName(codec) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

/// Join + set-op plan across codecs: gids ⋈ zipf probe lineage (both
/// sides) and a bag-union DAG on top, exercising the 1:N join indexes and
/// merged-path composition under every codec.
TEST(LineageStoreTest, JoinAndSetOpBitIdentical) {
  Table zipf = MakeZipfTable(6000, 25, 1.0);
  Table gids = MakeGidsTable(25);

  const std::vector<rid_t> outs = {0, 1, 2, 3};
  const std::vector<rid_t> zipf_ins = {0, 100, 5999};
  const std::vector<rid_t> gid_ins = {0, 5, 24};

  TraceRound zref, gref;
  bool have_ref = false;
  for (LineageCodec codec : kAllCodecs) {
    for (int threads : kThreadCounts) {
      SmokeEngine engine;
      ASSERT_TRUE(engine.CreateTable("zipf", zipf).ok());
      ASSERT_TRUE(engine.CreateTable("gids", gids).ok());
      const Table* zt = nullptr;
      const Table* gt = nullptr;
      ASSERT_TRUE(engine.GetTable("zipf", &zt).ok());
      ASSERT_TRUE(engine.GetTable("gids", &gt).ok());

      PlanBuilder b;
      int build = b.Scan(gt, "gids");
      int probe = b.Scan(zt, "zipf");
      JoinSpec js;
      js.left_key = 0;  // gids.id
      js.right_key = zipf_table::kZ;
      js.pk_build = true;
      int join = b.HashJoin(build, probe, js);
      int lo = b.Select(join, {Predicate::Int(0, CmpOp::kLe, 12)});
      int hi = b.Select(join, {Predicate::Int(0, CmpOp::kGt, 12)});
      int root = b.SetOp(SetOpKind::kBagUnion, lo, hi, std::vector<int>{});
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(root, &plan).ok());
      ASSERT_TRUE(engine.ExecutePlan("dag", plan, Opts(codec, threads)).ok());

      TraceRound zgot = TraceRound::Of(engine, "dag", "zipf", outs, zipf_ins);
      TraceRound ggot = TraceRound::Of(engine, "dag", "gids", outs, gid_ins);
      if (!have_ref) {
        zref = zgot;
        gref = ggot;
        have_ref = true;
      } else {
        const std::string what = std::string("codec=") +
                                 LineageCodecName(codec) +
                                 " threads=" + std::to_string(threads);
        zgot.ExpectEq(zref, what + " (zipf)");
        ggot.ExpectEq(gref, what + " (gids)");
      }
    }
  }
}

/// TPC-H Q1 (selection + group-by over lineitem) across codecs, plus the
/// skipping strategy over a frozen (compressed) partitioned index.
TEST(LineageStoreTest, TpchQ1AndSkippingBitIdentical) {
  tpch::Database db = tpch::Generate(0.002);
  SPJAQuery q1 = tpch::MakeQ1(db);

  Workload workload;
  workload.pushdown.skip_cols = {tpch::kLShipmode};

  const std::vector<rid_t> outs = {0, 1};
  std::vector<rid_t> ins = {0, 100, 999};

  TraceRound ref;
  std::multiset<std::string> skip_ref;
  bool have_ref = false;
  for (LineageCodec codec : kAllCodecs) {
    SmokeEngine engine;
    ASSERT_TRUE(engine.CreateTable("lineitem", db.lineitem).ok());
    const Table* t = nullptr;
    ASSERT_TRUE(engine.GetTable("lineitem", &t).ok());
    SPJAQuery q = q1;
    q.fact = t;
    ASSERT_TRUE(engine.ExecuteQuery("q1", q, Opts(codec, 1)).ok());
    // Second retention with the data-skipping push-down (which *replaces*
    // the plain fact backward index with the partitioned one).
    ASSERT_TRUE(
        engine.ExecuteQuery("q1skip", q, Opts(codec, 1), &workload).ok());

    TraceRound got = TraceRound::Of(engine, "q1", "lineitem", outs, ins);

    // Skipping strategy: trace group 0's MAIL rows only, through the
    // partitioned index (frozen under non-raw codecs).
    TraceSource src;
    ASSERT_TRUE(engine.MakeTraceSource("q1skip", &src).ok());
    LineageQuery lq;
    ASSERT_TRUE(TraceBuilder::Backward(src, "lineitem", {0})
                    .Filter(Predicate::Str(tpch::kLShipmode, CmpOp::kEq,
                                           "MAIL"))
                    .Strategy(TraceStrategy::kSkipping)
                    .Compile(&lq)
                    .ok());
    EXPECT_EQ(lq.strategy(), TraceStrategy::kSkipping);
    PlanResult pr;
    ASSERT_TRUE(lq.Execute(CaptureOptions::Inject(), &pr).ok());
    auto skip_rows = testing::RowSet(pr.output);

    // The tracker must see the partitioned skip index too — with skip
    // push-down it replaces the plain fact backward index and holds the
    // dominant lineage bytes.
    const SPJAResult* ro = nullptr;
    ASSERT_TRUE(engine.GetResultObject("q1skip", &ro).ok());
    EXPECT_GT(ro->skip_index.MemoryBytes(), 0u);
    EXPECT_EQ(StatBytes(engine, "q1skip"),
              ro->lineage.MemoryBytes() + ro->skip_index.MemoryBytes());

    if (!have_ref) {
      ref = got;
      skip_ref = skip_rows;
      have_ref = true;
    } else {
      const std::string what =
          std::string("codec=") + LineageCodecName(codec);
      got.ExpectEq(ref, what);
      EXPECT_EQ(skip_rows, skip_ref) << what;
    }
  }
}

/// A budget-evicted query with skip push-down must not resolve kAuto to
/// the skipping strategy (the partitioned index is gone; only its
/// dictionary survives) — it takes the lazy rescan and still answers
/// correctly, even with an equality filter on the partition column.
TEST(LineageStoreTest, EvictedSkipQueryFallsBackToLazyNotSkipping) {
  Table zipf = MakeZipfTable(10000, 12, 1.0);
  SPJAQuery query;
  query.fact_name = "zipf";
  query.group_by = {ColRef::Fact(zipf_table::kZ)};
  query.aggs = {AggSpec::Count("cnt")};
  Workload workload;
  workload.pushdown.skip_cols = {zipf_table::kZ};

  auto run = [&](SmokeEngine* engine, size_t budget) {
    ASSERT_TRUE(engine->CreateTable("zipf", zipf).ok());
    const Table* t = nullptr;
    ASSERT_TRUE(engine->GetTable("zipf", &t).ok());
    SPJAQuery q = query;
    q.fact = t;
    engine->SetLineageBudget(budget);
    ASSERT_TRUE(engine->ExecuteQuery("q", q, CaptureOptions::Inject(),
                                     &workload)
                    .ok());
  };
  SmokeEngine reference;
  run(&reference, 0);
  SmokeEngine budgeted;
  run(&budgeted, 128);  // far below any footprint: forces eviction
  ASSERT_GT(budgeted.LineageMemoryStats().num_evicted, 0u);
  EXPECT_LE(budgeted.LineageMemoryStats().total_bytes, 128u);

  // Pin the filter to output 1's actual group key so both engines trace a
  // non-empty row set. The reference answers through the skipping strategy,
  // the budgeted engine through the lazy rescan — same rows either way.
  const Table* out = nullptr;
  ASSERT_TRUE(reference.GetResult("q", &out).ok());
  const int64_t key = out->column(0).ints()[1];
  auto traced = [&](const SmokeEngine& engine, TraceStrategy expect) {
    TraceSource src;
    EXPECT_TRUE(engine.MakeTraceSource("q", &src).ok());
    LineageQuery lq;
    EXPECT_TRUE(TraceBuilder::Backward(src, "zipf", {1})
                    .Filter(Predicate::Int(zipf_table::kZ, CmpOp::kEq, key))
                    .Compile(&lq)
                    .ok());
    EXPECT_EQ(lq.strategy(), expect);
    PlanResult pr;
    EXPECT_TRUE(lq.Execute(CaptureOptions::Inject(), &pr).ok());
    // Trace plans carry the __trace_rid column; lazy plans don't. Compare
    // the endpoint rows only.
    std::vector<rid_t> rids;
    Table rows;
    if (SplitTraceRows(pr.output, &rids, &rows).ok()) {
      return testing::RowSet(rows);
    }
    return testing::RowSet(pr.output);
  };
  auto want = traced(reference, TraceStrategy::kSkipping);
  auto got = traced(budgeted, TraceStrategy::kLazy);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

// ---- memory budget: re-encode, evict, lazy fallback ----

TEST(LineageStoreTest, BudgetEvictionFallsBackToLazyRescan) {
  Table zipf = MakeZipfTable(15000, 30, 1.0);
  SPJAQuery query;
  query.fact_name = "zipf";
  query.fact_filters = {Predicate::Double(zipf_table::kV, CmpOp::kLt, 80.0)};
  query.group_by = {ColRef::Fact(zipf_table::kZ)};
  query.aggs = {AggSpec::Count("cnt")};

  // Reference engine: unlimited memory, raw codec.
  SmokeEngine unbounded;
  ASSERT_TRUE(unbounded.CreateTable("zipf", zipf).ok());
  const Table* t0 = nullptr;
  ASSERT_TRUE(unbounded.GetTable("zipf", &t0).ok());
  SPJAQuery q0 = query;
  q0.fact = t0;
  for (const char* name : {"qa", "qb", "qc"}) {
    ASSERT_TRUE(unbounded.ExecuteQuery(name, q0).ok());
  }
  const size_t raw_total = unbounded.LineageMemoryStats().total_bytes;
  ASSERT_GT(raw_total, 0u);

  // Budgeted engine: the budget is far below the raw footprint, so capture
  // must re-encode and then evict — but still succeed.
  SmokeEngine budgeted;
  ASSERT_TRUE(budgeted.CreateTable("zipf", zipf).ok());
  const Table* t1 = nullptr;
  ASSERT_TRUE(budgeted.GetTable("zipf", &t1).ok());
  SPJAQuery q1 = query;
  q1.fact = t1;
  const size_t budget = raw_total / 6;
  budgeted.SetLineageBudget(budget);
  for (const char* name : {"qa", "qb", "qc"}) {
    ASSERT_TRUE(budgeted.ExecuteQuery(name, q1, CaptureOptions::Inject()).ok());
  }

  LineageStoreStats stats = budgeted.LineageMemoryStats();
  EXPECT_EQ(stats.budget_bytes, budget);
  EXPECT_LE(stats.total_bytes, stats.budget_bytes);
  EXPECT_GT(stats.num_evicted, 0u);

  // Every trace on the budgeted engine answers exactly like the unbounded
  // one — evicted queries transparently fall back to the lazy rescan.
  const Table* out = nullptr;
  ASSERT_TRUE(unbounded.GetResult("qa", &out).ok());
  std::vector<rid_t> all_outs;
  for (rid_t o = 0; o < out->num_rows(); ++o) all_outs.push_back(o);
  for (const char* name : {"qa", "qb", "qc"}) {
    std::vector<rid_t> want, got;
    ASSERT_TRUE(unbounded.Backward(name, "zipf", all_outs, &want).ok());
    ASSERT_TRUE(budgeted.Backward(name, "zipf", all_outs, &got).ok());
    EXPECT_EQ(got, want) << name;

    TraceResult twant, tgot;
    ASSERT_TRUE(unbounded.TraceBackward(name, "zipf", {2}, &twant).ok());
    ASSERT_TRUE(budgeted.TraceBackward(name, "zipf", {2}, &tgot).ok());
    EXPECT_EQ(tgot.rids, twant.rids) << name;
    EXPECT_EQ(testing::RowSet(tgot.rows), testing::RowSet(twant.rows))
        << name;

    // Multi-seed typed traces also fall back (per-seed lazy loop), and the
    // synthesized handle stays chainable: its plan lineage maps the traced
    // rows back to the fact relation.
    TraceResult mwant, mgot;
    ASSERT_TRUE(
        unbounded.TraceBackward(name, "zipf", {0, 1, 2}, &mwant).ok());
    ASSERT_TRUE(budgeted.TraceBackward(name, "zipf", {0, 1, 2}, &mgot).ok());
    EXPECT_EQ(mgot.rids, mwant.rids) << name;
    EXPECT_EQ(testing::RowSet(mgot.rows), testing::RowSet(mwant.rows))
        << name;
    ASSERT_EQ(mgot.plan.lineage.num_inputs(), 1u);
    EXPECT_TRUE(testing::AreInverse(mgot.plan.lineage.input(0).backward,
                                    mgot.plan.lineage.input(0).forward));
    // Distinct groups trace disjoint rids: the forward half is 1:1. A seed
    // traced twice without dedup repeats its rids: 1:N.
    EXPECT_EQ(mgot.plan.lineage.input(0).forward.kind(),
              LineageIndex::Kind::kArray);
    TraceResult one, dup;
    ASSERT_TRUE(budgeted.TraceBackward(name, "zipf", {1}, &one).ok());
    ASSERT_TRUE(budgeted
                    .TraceBackward(name, "zipf", {1, 1}, &dup,
                                   /*dedup=*/false)
                    .ok());
    ASSERT_EQ(dup.rids.size(), 2 * one.rids.size());
    EXPECT_EQ(dup.plan.lineage.input(0).forward.kind(),
              LineageIndex::Kind::kIndex);
    EXPECT_TRUE(testing::AreInverse(dup.plan.lineage.input(0).backward,
                                    dup.plan.lineage.input(0).forward));

    TraceResult rwant, rgot;
    ASSERT_TRUE(unbounded.TraceBackward(name, "zipf", {1}, &rwant).ok());
    ASSERT_TRUE(budgeted.TraceBackward(name, "zipf", {1}, &rgot).ok());
    EXPECT_EQ(testing::RowSet(rgot.rows), testing::RowSet(rwant.rows))
        << name;
  }

  // Forward lineage has no lazy rewrite: an evicted query reports a clear
  // error instead of a wrong answer (pin the documented behavior).
  LineageStoreStats after = budgeted.LineageMemoryStats();
  for (const auto& q : after.queries) {
    if (!q.evicted) continue;
    TraceResult fwd;
    EXPECT_FALSE(budgeted.TraceForward(q.name, "zipf", {0}, &fwd).ok());
  }

  // SetLineageBudget(0) lifts the budget; new captures stay resident.
  budgeted.SetLineageBudget(0);
  ASSERT_TRUE(budgeted.ExecuteQuery("qd", q1).ok());
  EXPECT_GT(StatBytes(budgeted, "qd"), 0u);
}

/// Eviction keys on the retained plan's shape, not on how it was issued: a
/// dim-free SpjaBlock built with PlanBuilder evicts to the lazy rescan like
/// an ExecuteQuery result, while a block with a dimension join (no
/// transparent rescan) stays resident whatever the budget.
TEST(LineageStoreTest, PlanBuiltSpjaBlockEvictsToLazyRescan) {
  tpch::Database db = tpch::Generate(0.002);
  auto run = [&](SmokeEngine* engine, size_t budget) {
    ASSERT_TRUE(engine->CreateTable("lineitem", db.lineitem).ok());
    ASSERT_TRUE(engine->CreateTable("orders", db.orders).ok());
    SPJAQuery q1 = tpch::MakeQ1(db);
    SPJAQuery q12 = tpch::MakeQ12(db);
    ASSERT_TRUE(engine->GetTable("lineitem", &q1.fact).ok());
    ASSERT_TRUE(engine->GetTable("lineitem", &q12.fact).ok());
    ASSERT_TRUE(engine->GetTable("orders", &q12.dims[0].table).ok());
    const CaptureOptions opts = CaptureOptions::Inject();
    engine->SetLineageBudget(budget);
    for (const auto& [name, q] : {std::make_pair("q12", q12),
                                  std::make_pair("q1", q1)}) {
      PlanBuilder b;
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(b.SpjaBlock(q), &plan).ok());
      ASSERT_TRUE(engine->ExecutePlan(name, plan, opts).ok());
    }
  };
  SmokeEngine indexed;
  run(&indexed, 0);
  SmokeEngine budgeted;
  run(&budgeted, 256);  // far below any footprint: forces eviction

  bool q1_evicted = false;
  for (const auto& q : budgeted.LineageMemoryStats().queries) {
    if (q.name == "q1") q1_evicted = q.evicted;
    if (q.name == "q12") {
      EXPECT_FALSE(q.evicted);
      EXPECT_GT(q.bytes, 0u);
    }
  }
  ASSERT_TRUE(q1_evicted);

  const Table* out = nullptr;
  ASSERT_TRUE(indexed.GetResult("q1", &out).ok());
  std::vector<rid_t> all_outs;
  for (rid_t o = 0; o < out->num_rows(); ++o) all_outs.push_back(o);
  for (bool dedup : {false, true}) {
    std::vector<rid_t> want, got;
    ASSERT_TRUE(indexed.Backward("q1", "lineitem", all_outs, &want, dedup).ok());
    ASSERT_TRUE(budgeted.Backward("q1", "lineitem", all_outs, &got, dedup).ok());
    EXPECT_EQ(got, want);
  }
  for (const std::vector<rid_t>& seeds :
       {std::vector<rid_t>{1}, std::vector<rid_t>{0, 2, 3}}) {
    TraceResult want, got;
    ASSERT_TRUE(indexed.TraceBackward("q1", "lineitem", seeds, &want).ok());
    ASSERT_TRUE(budgeted.TraceBackward("q1", "lineitem", seeds, &got).ok());
    EXPECT_EQ(got.rids, want.rids) << seeds.size() << " seeds";
    EXPECT_EQ(testing::RowSet(got.rows), testing::RowSet(want.rows))
        << seeds.size() << " seeds";
  }

  // The resident dimension-join block still answers from its indexes.
  for (const char* relation : {"lineitem", "orders"}) {
    std::vector<rid_t> want, got;
    ASSERT_TRUE(indexed.Backward("q12", relation, {0, 1}, &want).ok());
    ASSERT_TRUE(budgeted.Backward("q12", relation, {0, 1}, &got).ok());
    EXPECT_EQ(got, want) << relation;
  }
}

/// Pruned directions are NOT eviction: a workload that declared "no
/// backward queries" gets an error, not a silent lazy rescan — the
/// fallback is gated on the store's eviction flag.
TEST(LineageStoreTest, PrunedBackwardDoesNotLazyFallback) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(3000, 10, 1.0)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  SPJAQuery q;
  q.fact = t;
  q.fact_name = "zipf";
  q.group_by = {ColRef::Fact(zipf_table::kZ)};
  q.aggs = {AggSpec::Count("cnt")};
  Workload w;
  w.needs_backward = false;  // forward-only workload
  ASSERT_TRUE(engine.ExecuteQuery("q", q, CaptureMode::kInject, &w).ok());

  std::vector<rid_t> rids;
  EXPECT_FALSE(engine.Backward("q", "zipf", {0}, &rids).ok());
  TraceResult tr;
  EXPECT_FALSE(engine.TraceBackward("q", "zipf", {0}, &tr).ok());
  EXPECT_FALSE(engine.TraceBackward("q", "zipf", {0, 1}, &tr).ok());
  // Forward still answers (that is what the workload declared).
  EXPECT_TRUE(engine.TraceForward("q", "zipf", {0}, &tr).ok());
}

TEST(LineageStoreTest, BudgetReencodesBeforeEvicting) {
  // A budget between the adaptive and raw footprints: enforcement should
  // recover by re-encoding alone, evicting nothing.
  Table zipf = MakeZipfTable(20000, 8, 0.0);
  SmokeEngine probe;
  ASSERT_TRUE(probe.CreateTable("zipf", zipf).ok());
  const Table* tp = nullptr;
  ASSERT_TRUE(probe.GetTable("zipf", &tp).ok());
  PlanBuilder pb;
  int sel = pb.Select(pb.Scan(tp, "zipf"),
                      {Predicate::Int(zipf_table::kId, CmpOp::kLt, 15000)});
  LogicalPlan plan;
  ASSERT_TRUE(pb.Build(sel, &plan).ok());
  ASSERT_TRUE(
      probe.ExecutePlan("sel", plan, Opts(LineageCodec::kRaw, 1)).ok());
  const size_t raw_bytes = probe.LineageMemoryStats().total_bytes;

  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", zipf).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  PlanBuilder b2;
  int sel2 = b2.Select(b2.Scan(t, "zipf"),
                       {Predicate::Int(zipf_table::kId, CmpOp::kLt, 15000)});
  LogicalPlan plan2;
  ASSERT_TRUE(b2.Build(sel2, &plan2).ok());
  engine.SetLineageBudget(raw_bytes / 2);  // adaptive fits easily
  ASSERT_TRUE(
      engine.ExecutePlan("sel", plan2, Opts(LineageCodec::kRaw, 1)).ok());

  LineageStoreStats stats = engine.LineageMemoryStats();
  EXPECT_LE(stats.total_bytes, stats.budget_bytes);
  EXPECT_EQ(stats.num_evicted, 0u);
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries[0].codec, LineageCodec::kAdaptive);

  // The re-encoded plan still answers traces (indexed, not lazy).
  std::vector<rid_t> rids;
  ASSERT_TRUE(engine.Backward("sel", "zipf", {42}, &rids).ok());
  EXPECT_EQ(rids, std::vector<rid_t>{42});
}

/// Deferred plans are accounted (and encoded) at FinalizePlan, not at
/// retention — before finalize the entry reports 0 bytes, after it the
/// encoded composed indexes.
TEST(LineageStoreTest, DeferredPlanAccountsAtFinalize) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(4000, 10, 1.0)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt")};
  PlanBuilder b;
  int root = b.GroupBy(b.Scan(t, "zipf"), spec);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());

  CaptureOptions opts = CaptureOptions::Defer();
  opts.defer_plan_finalize = true;
  opts.lineage_codec = LineageCodec::kAdaptive;
  ASSERT_TRUE(engine.ExecutePlan("dq", plan, opts).ok());
  EXPECT_EQ(StatBytes(engine, "dq"), 0u);  // nothing composed yet
  ASSERT_TRUE(engine.FinalizePlan("dq").ok());

  const PlanResult* pr = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("dq", &pr).ok());
  EXPECT_GT(pr->lineage.num_inputs(), 0u);
  EXPECT_TRUE(pr->lineage.input(0).backward.encoded());
  EXPECT_EQ(StatBytes(engine, "dq"), pr->lineage.MemoryBytes());
  EXPECT_GT(StatBytes(engine, "dq"), 0u);
}

// ---- drop/replace accounting (regression: stats return to baseline) ----

TEST(LineageStoreTest, DropReleasesLineageAccounting) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(5000, 10, 1.0)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  ASSERT_EQ(engine.LineageMemoryStats().total_bytes, 0u);

  SPJAQuery query;
  query.fact = t;
  query.fact_name = "zipf";
  query.group_by = {ColRef::Fact(zipf_table::kZ)};
  query.aggs = {AggSpec::Count("cnt")};
  ASSERT_TRUE(engine.ExecuteQuery("spja", query).ok());

  PlanBuilder b;
  int sel = b.Select(b.Scan(t, "zipf"),
                     {Predicate::Int(zipf_table::kId, CmpOp::kLt, 2500)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(sel, &plan).ok());
  ASSERT_TRUE(
      engine.ExecutePlan("plan", plan, Opts(LineageCodec::kAdaptive, 1)).ok());

  LineageStoreStats stats = engine.LineageMemoryStats();
  EXPECT_EQ(stats.num_queries, 2u);
  EXPECT_GT(stats.total_bytes, 0u);

  // Dropping the table is refused while results borrow it — and must not
  // disturb accounting.
  EXPECT_FALSE(engine.DropTable("zipf").ok());
  EXPECT_EQ(engine.LineageMemoryStats().total_bytes, stats.total_bytes);

  ASSERT_TRUE(engine.DropResult("spja").ok());
  ASSERT_TRUE(engine.DropResult("plan").ok());
  LineageStoreStats after = engine.LineageMemoryStats();
  EXPECT_EQ(after.total_bytes, 0u);
  EXPECT_EQ(after.num_queries, 0u);

  // With the borrowers gone, replace and drop proceed; accounting stays at
  // baseline.
  ASSERT_TRUE(engine.ReplaceTable("zipf", MakeZipfTable(100, 5, 0.0)).ok());
  ASSERT_TRUE(engine.DropTable("zipf").ok());
  EXPECT_EQ(engine.LineageMemoryStats().total_bytes, 0u);
}

TEST(LineageStoreTest, DropResultRefusedWhileTraceBorrowsOutput) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("zipf", MakeZipfTable(2000, 10, 1.0)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(engine.GetTable("zipf", &t).ok());
  SPJAQuery query;
  query.fact = t;
  query.fact_name = "zipf";
  query.group_by = {ColRef::Fact(zipf_table::kZ)};
  query.aggs = {AggSpec::Count("cnt")};
  ASSERT_TRUE(engine.ExecuteQuery("base", query).ok());

  // A retained forward trace scans base's output rows: its lineage borrows
  // them, so dropping "base" first would dangle the trace.
  TraceSource src;
  ASSERT_TRUE(engine.MakeTraceSource("base", &src).ok());
  ASSERT_TRUE(engine
                  .ExecuteTraceQuery("fwd",
                                     TraceBuilder::Forward(src, "zipf", {0}))
                  .ok());
  EXPECT_FALSE(engine.DropResult("base").ok());
  ASSERT_TRUE(engine.DropResult("fwd").ok());
  ASSERT_TRUE(engine.DropResult("base").ok());
  EXPECT_EQ(engine.LineageMemoryStats().num_queries, 0u);
}

}  // namespace
}  // namespace smoke
