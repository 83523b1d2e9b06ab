// trace_drilldown: closed loop, one client thread. Set-up retains one
// captured plan, a group-by over a PK-FK hash join on a zipf-skewed fact
// table, in the engine's default lineage codec. Each timed operation is a
// drill-down through TraceBuilder: from a zipf-chosen output group, trace
// backward through the join to the fact rows, filter them and aggregate
// them. Group sizes follow the zipf skew, so the tail is set by the large
// groups, whose traces decode and materialize the most rows.
//
// Next to each drill-down the client answers the same question lazily,
// with a plan that rescans the fact table (the paper's Lazy baseline), and
// the order of the two alternates. The end-to-end metrics are ratios of
// each drill-down's latency to that of its lazy twin, which a slow phase
// of a shared host leaves almost unchanged; the absolute latencies are
// per-layer metrics.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/zipf.h"
#include "core/smoke_engine.h"
#include "harness.h"
#include "lineage/compose.h"
#include "lineage/store/lineage_store.h"
#include "optimizer/optimizer.h"
#include "plan/executor.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace smoke;

// 100 groups; the traced group is dealt with skew 1.2, so the median
// drill-down lands inside the 4th-largest group (~48k fact rows) rather
// than on the boundary between two group sizes, as it did with skew 1.0.
// Groups and filter thresholds come from decks (see Deck), not independent
// draws: with independent draws the median fell at a different place
// within that group in each run. With 1000 groups the median drill-down
// read ~5k scattered rows in ~0.5 ms and its run-to-run spread on a shared
// host was several times larger.
constexpr size_t kFactRows = 1000000;
constexpr int64_t kGroups = 100;
constexpr double kDataTheta = 1.0;   // skew of the fact table's foreign keys
constexpr double kTraceTheta = 1.2;  // skew of the traced group choice
constexpr int64_t kValues = 100;     // f_val and f_flt lie in [0, kValues)
constexpr int kWarmupTraces = 50;
/// Cards in one pass of the group deck; group ranks up to ~90 get a card.
constexpr size_t kGroupCards = 400;

enum FactCol : int { kFId = 0, kFKey, kFVal, kFFlt };

Table MakeFact(size_t rows, uint64_t seed) {
  Schema s;
  s.AddField("f_id", DataType::kInt64);
  s.AddField("f_key", DataType::kInt64);
  s.AddField("f_val", DataType::kInt64);
  s.AddField("f_flt", DataType::kInt64);
  Table t(s);
  t.Reserve(rows);
  ZipfGenerator key(kGroups, kDataTheta, seed);
  UniformInt val(0, kValues - 1, seed + 1);
  UniformInt flt(0, kValues - 1, seed + 2);
  for (size_t i = 0; i < rows; ++i) {
    t.mutable_column(kFId).AppendInt(static_cast<int64_t>(i));
    t.mutable_column(kFKey).AppendInt(key.Next());
    t.mutable_column(kFVal).AppendInt(val.Next());
    t.mutable_column(kFFlt).AppendInt(flt.Next());
  }
  return t;
}

Table MakeDim() {
  Schema s;
  s.AddField("d_key", DataType::kInt64);
  s.AddField("d_cat", DataType::kInt64);
  Table t(s);
  for (int64_t k = 1; k <= kGroups; ++k) t.AppendRow({k, k % 10});
  return t;
}

/// dim ⋈ fact on d_key = f_key (dim is the PK build side), then optionally
/// GROUP BY f_key with COUNT and SUM(f_val).
Status BuildPlan(const Table* dim, const Table* fact, bool group,
                 LogicalPlan* out) {
  PlanBuilder b;
  JoinSpec join;
  join.left_key_name = "d_key";
  join.right_key_name = "f_key";
  join.pk_build = true;
  int node = b.HashJoin(b.Scan(dim, "dim"), b.Scan(fact, "fact"), join);
  if (group) {
    GroupBySpec spec;
    spec.key_names = {"f_key"};
    spec.aggs = {AggSpec::Count("cnt"),
                 AggSpec::Sum(ScalarExpr::Col("f_val"), "sum_val")};
    node = b.GroupBy(node, spec);
  }
  return b.Build(node, out);
}

struct Setup {
  std::unique_ptr<SmokeEngine> engine;
  const Table* fact = nullptr;
  const Table* dim = nullptr;
};

/// Set-up: load copies of the inputs into an engine, then capture and
/// retain the plan.
Status SetUp(const Table& fact, const Table& dim, Setup* out) {
  out->engine = std::make_unique<SmokeEngine>();
  SMOKE_RETURN_NOT_OK(out->engine->CreateTable("fact", fact));
  SMOKE_RETURN_NOT_OK(out->engine->CreateTable("dim", dim));
  SMOKE_RETURN_NOT_OK(out->engine->GetTable("fact", &out->fact));
  SMOKE_RETURN_NOT_OK(out->engine->GetTable("dim", &out->dim));
  LogicalPlan plan;
  SMOKE_RETURN_NOT_OK(BuildPlan(out->dim, out->fact, true, &plan));
  return out->engine->ExecutePlan("drill", plan, CaptureOptions::Inject());
}

/// The join and group-by lineage fragments of the retained plan, captured
/// as two separate plans, so a traced drill-down can time ComposeBackward
/// over its hop: group -> join rows -> fact rows.
struct HopFragments {
  PlanResult join;            // backward "fact": join row -> fact rid (1:1)
  PlanResult group;           // backward "joined": group -> join rows
  std::vector<rid_t> group_of_key;  // f_key -> output rid of `group`
};

Status CaptureFragments(const Setup& s, HopFragments* f) {
  LogicalPlan join_plan;
  SMOKE_RETURN_NOT_OK(BuildPlan(s.dim, s.fact, false, &join_plan));
  SMOKE_RETURN_NOT_OK(ExecutePlan(join_plan, CaptureOptions::Inject(), &f->join));
  PlanBuilder b;
  GroupBySpec spec;
  spec.key_names = {"f_key"};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan group_plan;
  SMOKE_RETURN_NOT_OK(
      b.Build(b.GroupBy(b.Scan(&f->join.output, "joined"), spec), &group_plan));
  SMOKE_RETURN_NOT_OK(ExecutePlan(group_plan, CaptureOptions::Inject(), &f->group));
  if (f->join.lineage.FindInput("fact") < 0 ||
      f->group.lineage.FindInput("joined") < 0) {
    return Status::FailedPrecondition("hop fragments lack backward lineage");
  }
  const auto& keys = f->group.output.column("f_key").ints();
  f->group_of_key.assign(kGroups + 1, kInvalidRid);
  for (size_t g = 0; g < keys.size(); ++g) {
    f->group_of_key[static_cast<size_t>(keys[g])] = static_cast<rid_t>(g);
  }
  return Status::OK();
}

/// The group deck: each key (rank) gets its zipf(kTraceTheta) share of
/// kGroupCards cards, rounded by largest remainder.
std::vector<int64_t> ZipfCards() {
  std::vector<double> share(kGroups);
  double total = 0;
  for (int64_t k = 1; k <= kGroups; ++k) {
    share[static_cast<size_t>(k - 1)] = std::pow(static_cast<double>(k), -kTraceTheta);
    total += share[static_cast<size_t>(k - 1)];
  }
  std::vector<size_t> copies(kGroups);
  std::vector<std::pair<double, size_t>> remainder;
  size_t dealt = 0;
  for (size_t k = 0; k < share.size(); ++k) {
    const double exact = share[k] / total * kGroupCards;
    copies[k] = static_cast<size_t>(exact);
    dealt += copies[k];
    remainder.push_back({exact - static_cast<double>(copies[k]), k});
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; dealt < kGroupCards; ++i, ++dealt) ++copies[remainder[i].second];
  std::vector<int64_t> cards;
  for (size_t k = 0; k < copies.size(); ++k) {
    cards.insert(cards.end(), copies[k], static_cast<int64_t>(k + 1));
  }
  return cards;
}

/// Per (key, f_flt value): fact row count and f_val sum, from one scan of
/// the fact table. A drill-down's expected result is a prefix sum.
struct Expected {
  std::vector<int64_t> count;  // [key * kValues + flt]
  std::vector<int64_t> sum;
};

Expected ScanFact(const Table& fact) {
  Expected e;
  e.count.assign(static_cast<size_t>((kGroups + 1) * kValues), 0);
  e.sum.assign(e.count.size(), 0);
  const auto& key = fact.column(kFKey).ints();
  const auto& val = fact.column(kFVal).ints();
  const auto& flt = fact.column(kFFlt).ints();
  for (size_t r = 0; r < fact.num_rows(); ++r) {
    const size_t slot = static_cast<size_t>(key[r] * kValues + flt[r]);
    ++e.count[slot];
    e.sum[slot] += val[r];
  }
  return e;
}

/// The drill-down answered the way the paper's Lazy baseline does: a plan
/// that rescans the fact table, selects the group's rows that pass the
/// filter and aggregates them, run without capture.
Status LazyDrill(const Table* fact, int64_t key, int64_t thr, PlanResult* out) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.aggs = {AggSpec::Count("n"),
               AggSpec::Sum(ScalarExpr::Col("f_val"), "s")};
  const int rows = b.Select(b.Scan(fact, "fact"),
                            {Predicate::Int("f_key", CmpOp::kEq, key),
                             Predicate::Int("f_flt", CmpOp::kLt, thr)});
  LogicalPlan plan;
  SMOKE_RETURN_NOT_OK(b.Build(b.GroupBy(rows, spec), &plan));
  return ExecutePlan(plan, CaptureOptions::None(), out);
}

double AsDouble(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  return -1;
}

/// Traced drill-downs only: the lineage and optimizer work a drill-down
/// implies, timed as separate calls outside the end-to-end window.
void ProbeLayers(const PlanResult& retained, int fact_input,
                 const HopFragments& hops, int64_t key, rid_t out_rid,
                 const LineageQuery& compiled, Report* report) {
  {
    LogicalPlan optimized;
    Status st;
    {
      Tracer::Scope s("optimizer.optimize");
      st = OptimizePlan(compiled.plan(), &optimized, nullptr);
    }
    report->Check(st.ok(), "OptimizePlan: " + st.ToString());
  }
  std::vector<rid_t> decoded;
  {
    Tracer::Scope s("lineage.decode");
    retained.lineage.input(static_cast<size_t>(fact_input))
        .backward.TraceInto(out_rid, &decoded);
  }
  Tracer::Get().Count("query.rows_per_trace", static_cast<double>(decoded.size()));

  const rid_t g = hops.group_of_key[static_cast<size_t>(key)];
  const LineageIndex& group_bw =
      hops.group.lineage.input(static_cast<size_t>(
          hops.group.lineage.FindInput("joined"))).backward;
  const LineageIndex& join_bw =
      hops.join.lineage.input(static_cast<size_t>(
          hops.join.lineage.FindInput("fact"))).backward;
  RidIndex seed(1);
  group_bw.ForEachRelated(g, [&seed](rid_t r) { seed.Append(0, r); });
  const LineageIndex outer = LineageIndex::FromIndex(std::move(seed));
  LineageIndex composed;
  {
    Tracer::Scope s("lineage.compose");
    composed = ComposeBackward(outer, join_bw);
  }
  std::vector<rid_t> hop_rids;
  composed.TraceInto(0, &hop_rids);
  std::sort(decoded.begin(), decoded.end());
  std::sort(hop_rids.begin(), hop_rids.end());
  report->Check(hop_rids == decoded,
                "composed hop lineage differs from the retained lineage, key " +
                    std::to_string(key));
}

}  // namespace

Status RunTraceDrilldown(const RunConfig& cfg, Report* report) {
  smoke::bench::StabilizeAllocator();

  // The inputs are generated once and not timed.
  const Table fact = MakeFact(kFactRows, cfg.seed);
  const Table dim = MakeDim();
  RssWatermark rss;
  if (!rss.Start()) report->Note("peak RSS could not be reset; it includes the inputs");

  // The first set-up builds the engine the run measures; the others run
  // on engines of their own during the timed window.
  std::vector<double> setup_s;
  auto timed_setup = [&](Setup* out) -> Status {
    const auto t0 = Clock::now();
    SMOKE_RETURN_NOT_OK(SetUp(fact, dim, out));
    setup_s.push_back(MsSince(t0) / 1000.0);
    return Status::OK();
  };
  Setup setup;
  SMOKE_RETURN_NOT_OK(timed_setup(&setup));
  SmokeEngine& engine = *setup.engine;
  const PlanResult* retained = nullptr;
  SMOKE_RETURN_NOT_OK(engine.GetPlanResult("drill", &retained));
  const int fact_input = retained->lineage.FindInput("fact");
  if (fact_input < 0) return Status::FailedPrecondition("no lineage on fact");
  TraceSource src;
  SMOKE_RETURN_NOT_OK(engine.MakeTraceSource("drill", &src));

  const Expected expected = ScanFact(*setup.fact);
  std::vector<rid_t> out_of_key(kGroups + 1, kInvalidRid);
  {
    const Table& out = retained->output;
    const auto& keys = out.column("f_key").ints();
    const auto& cnt = out.column("cnt").ints();
    for (size_t r = 0; r < out.num_rows(); ++r) {
      out_of_key[static_cast<size_t>(keys[r])] = static_cast<rid_t>(r);
      int64_t want = 0;
      for (int64_t f = 0; f < kValues; ++f) {
        want += expected.count[static_cast<size_t>(keys[r] * kValues + f)];
      }
      report->Check(cnt[r] == want, "group count of key " +
                                        std::to_string(keys[r]) +
                                        " differs from the fact scan");
    }
  }
  const size_t stored_bytes = engine.LineageMemoryStats().total_bytes;
  const double input_rows =
      static_cast<double>(setup.fact->num_rows() + setup.dim->num_rows());

  HopFragments hops;
  if (cfg.trace) {
    SMOKE_RETURN_NOT_OK(CaptureFragments(setup, &hops));
    Tracer::SetThreadActive(true);
    Tracer::Scope root("setup", 0);
    QueryLineage copy = retained->lineage;
    const size_t raw = copy.MemoryBytes();
    {
      Tracer::Scope s("lineage.encode");
      EncodeQueryLineage(&copy, LineageCodec::kAdaptive);
    }
    Tracer::Get().Count("lineage.raw_bytes_per_row", raw / input_rows);
    Tracer::Get().Count("lineage.encoded_bytes_per_row",
                        copy.MemoryBytes() / input_rows);
    Tracer::Get().Count("store.bytes", static_cast<double>(stored_bytes));
  }
  Tracer::SetThreadActive(false);

  // The operation sequence, dealt from decks shuffled by the seed:
  // zipf-chosen groups (rank 1 = the largest key) and uniform filter
  // thresholds, one threshold deck per group so that every group sees
  // every threshold equally often.
  Deck pick(ZipfCards(), cfg.seed * 7919 + 1);
  std::vector<int64_t> thresholds(kValues);
  for (int64_t t = 1; t <= kValues; ++t) thresholds[static_cast<size_t>(t - 1)] = t;
  std::vector<Deck> threshold;
  for (int64_t k = 0; k <= kGroups; ++k) {
    threshold.emplace_back(thresholds, cfg.seed * 7919 + 2 + static_cast<uint64_t>(k));
  }

  std::vector<double> untraced_ms, traced_ms, lazy_ms_all;
  SetupSchedule setups(cfg.seconds);
  Clock::time_point timed_start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    const bool warmup = i < kWarmupTraces;
    if (i == kWarmupTraces) timed_start = Clock::now();
    while (!warmup && setups.Due(MsSince(timed_start))) {
      Setup extra;
      SMOKE_RETURN_NOT_OK(timed_setup(&extra));
    }
    if (!warmup && MsSince(timed_start) >= cfg.seconds * 1000.0 &&
        untraced_ms.size() >= 20) {
      break;
    }
    const int64_t key = pick.Next();
    const int64_t thr = threshold[static_cast<size_t>(key)].Next();
    const rid_t out_rid = out_of_key[static_cast<size_t>(key)];
    if (out_rid == kInvalidRid) continue;  // a key no fact row drew

    // The drill-down, timed from Compile to the end of Execute.
    const bool traced = cfg.trace && i % 4 >= 2;
    Status st;
    PlanResult result;
    double ms = 0;
    auto drill = [&] {
      Tracer::SetThreadActive(traced);
      Tracer::Scope root("trace", i);
      TraceBuilder tb = TraceBuilder::Backward(src, "fact", {out_rid});
      tb.Filter(Predicate::Int("f_flt", CmpOp::kLt, thr))
          .Agg(AggSpec::Count("n"))
          .Agg(AggSpec::Sum(ScalarExpr::Col("f_val"), "s"));
      LineageQuery compiled;
      const auto t0 = Clock::now();
      {
        Tracer::Scope s("query.compile");
        st = tb.Compile(&compiled);
      }
      if (st.ok()) {
        Tracer::Scope s("query.execute");
        st = compiled.Execute(CaptureOptions::None(), &result);
      }
      ms = MsSince(t0);
      if (traced && st.ok()) {
        ProbeLayers(*retained, fact_input, hops, key, out_rid, compiled, report);
      }
    };
    // The same question answered lazily; it goes first in even operations
    // and second in odd ones.
    Status lazy_st;
    PlanResult lazy_result;
    double lazy_ms = 0;
    auto lazy = [&] {
      const auto t0 = Clock::now();
      lazy_st = LazyDrill(setup.fact, key, thr, &lazy_result);
      lazy_ms = MsSince(t0);
    };
    if (i % 2 == 0) lazy();
    drill();
    Tracer::SetThreadActive(false);
    if (i % 2 == 1) lazy();

    int64_t want_n = 0, want_s = 0;
    for (int64_t f = 0; f < thr; ++f) {
      want_n += expected.count[static_cast<size_t>(key * kValues + f)];
      want_s += expected.sum[static_cast<size_t>(key * kValues + f)];
    }
    // A hash aggregate over no rows emits no group.
    auto answers = [&](const Status& s, const Table& got) {
      return s.ok() && (want_n == 0
                            ? got.num_rows() == 0
                            : got.num_rows() == 1 &&
                                  AsDouble(got.GetValue(0, 0)) == want_n &&
                                  AsDouble(got.GetValue(0, 1)) == want_s);
    };
    report->Check(answers(st, result.output),
                  "drill-down on key " + std::to_string(key) + ": " +
                      (st.ok() ? "count or sum differs from the fact scan"
                               : st.ToString()));
    report->Check(answers(lazy_st, lazy_result.output),
                  "lazy drill-down on key " + std::to_string(key) + ": " +
                      (lazy_st.ok() ? "count or sum differs from the fact scan"
                                    : lazy_st.ToString()));
    if (warmup) continue;
    if (traced) {
      traced_ms.push_back(ms);
    } else {
      untraced_ms.push_back(ms);
      lazy_ms_all.push_back(lazy_ms);
    }
  }

  const Tail tail = TailOf(untraced_ms);
  report->Note("trace_drilldown: fact_rows=" + std::to_string(kFactRows) +
               " groups=" + std::to_string(kGroups) + " seed=" +
               std::to_string(cfg.seed) + " traces=" +
               std::to_string(untraced_ms.size() + traced_ms.size()));
  report->Note("trace_p50_ms=" + std::to_string(Median(untraced_ms)) +
               " trace_tail_ms=" + std::to_string(tail.value) +
               " lazy_p50_ms=" + std::to_string(Median(lazy_ms_all)));
  if (!cfg.trace) {
    ReportEndToEnd({setup_s, Ratios(untraced_ms, lazy_ms_all),
                    stored_bytes / input_rows, rss.PeakMb()},
                   report);
    return Status::OK();
  }
  ReportPerLayer(untraced_ms, traced_ms, lazy_ms_all, report);
  const std::vector<Span> spans = Tracer::Get().Spans();
  const std::vector<CounterSample> counters = Tracer::Get().Counters();
  report->Detail("query.compile_ms", MedianSpanMs(spans, "query.compile"), "ms");
  report->Detail("query.execute_ms", MedianSpanMs(spans, "query.execute"), "ms");
  report->Detail("query.rows_per_trace",
                 MedianCounter(counters, "query.rows_per_trace"), "count");
  report->Detail("lineage.decode_ms", MedianSpanMs(spans, "lineage.decode"), "ms");
  report->Detail("lineage.compose_ms", MedianSpanMs(spans, "lineage.compose"), "ms");
  WriteTrace(cfg, report);
  return Status::OK();
}

}  // namespace perfbench
