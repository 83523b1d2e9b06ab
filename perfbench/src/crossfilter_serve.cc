// crossfilter_serve: ServeCore over the ontime table with three group-by
// crossfilter views. Two closed-loop sessions brush bars of the carrier
// view into the other two views. Beside them one writer, open loop,
// appends fixed-size batches to the table on a fixed schedule through
// ServeCore::AppendRows, so refresh, snapshot publication and epoch
// reclamation compete with the brushes for the same cores. Each append is
// timed from when it was due, and the writer's lateness is reported.
//
// Each timed call has a reference beside it on the same thread: for a
// brush, the same linked counts computed by a scan of its pinned snapshot
// (the order of the two alternates); for an append, the three views of the
// version it published recounted by a scan of its relation. The scans are
// also the correctness checks. The end-to-end op_*_rel metrics are ratios
// of each brush's latency to its scan's, which a slow phase of a shared
// host leaves almost unchanged; the absolute latencies are per-layer
// metrics. Appends are not gated on their own: their cost shows in the
// brush tail, and their latency and ratio to the recount are printed.
//
// Threads: two sessions, one admission-pool worker, and the writer (the
// main thread) — four in all.
#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/plan_crossfilter.h"
#include "harness.h"
#include "lineage/store/lineage_store.h"
#include "optimizer/optimizer.h"
#include "serve/serve_core.h"
#include "serve/session.h"
#include "tracer.h"
#include "workloads.h"
#include "workloads/ontime.h"

namespace perfbench {
namespace {

using namespace smoke;

constexpr size_t kBaseRows = 200000;
constexpr size_t kBatchRows = 500;
constexpr double kAppendPeriodMs = 125;
constexpr int kSessions = 2;
constexpr int kPoolThreads = 1;
constexpr int kWarmupBrushes = 20;

struct ViewSpec {
  const char* name;
  int column;
  int64_t keys;  ///< the column's values lie in [0, keys)
};
// The brushed view comes first; brushes land in the other two.
constexpr ViewSpec kViews[] = {
    {"by_carrier", ontime::kCarrier, ontime::kNumCarriers},
    {"by_delay", ontime::kDelayBin, ontime::kNumDelayBins},
    {"by_airport", ontime::kLatLonBin, ontime::kNumLatLonBins}};
constexpr size_t kNumViews = std::size(kViews);

/// Row count per key of each view's column, indexed [view][key].
using ViewCounts = std::vector<std::vector<int64_t>>;

Status CountBy(const Table* t, int column, LogicalPlan* plan) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {column};
  spec.aggs = {AggSpec::Count("cnt")};
  return b.Build(b.GroupBy(b.Scan(t, "ontime"), spec), plan);
}

/// Set-up: a ServeCore over a copy of the table, its views defined, the
/// first snapshot built, and one append of `first_batch`, which seeds the
/// incremental builder; the timed appends then all take the same path.
Status SetUp(const Table& table, const Table& first_batch,
             std::unique_ptr<ServeCore>* out) {
  ServeOptions opts;
  opts.num_threads = kPoolThreads;
  auto core = std::make_unique<ServeCore>("ontime", opts);
  SMOKE_RETURN_NOT_OK(core->CreateTable("ontime", table));
  for (const ViewSpec& v : kViews) {
    const int column = v.column;
    SMOKE_RETURN_NOT_OK(core->DefineView(
        v.name, [column](const SmokeEngine& engine, LogicalPlan* plan) {
          const Table* t = nullptr;
          SMOKE_RETURN_NOT_OK(engine.GetTable("ontime", &t));
          return CountBy(t, column, plan);
        }));
  }
  SMOKE_RETURN_NOT_OK(core->Start());
  SMOKE_RETURN_NOT_OK(core->AppendRows("ontime", first_batch));
  *out = std::move(core);
  return Status::OK();
}

/// Scans the relation of a snapshot: per view, the row count per key of
/// the rows whose carrier is `carrier`, or of all rows when `carrier` < 0.
ViewCounts ScanCounts(const ServeSnapshot& snap, int64_t carrier) {
  ViewCounts counts(kNumViews);
  for (size_t v = 0; v < kNumViews; ++v) {
    counts[v].assign(static_cast<size_t>(kViews[v].keys), 0);
  }
  const Table* rel = nullptr;
  if (!snap.engine.GetTable("ontime", &rel).ok()) return counts;
  const auto& carriers = rel->column(ontime::kCarrier).ints();
  for (size_t v = 0; v < kNumViews; ++v) {
    const auto& keys = rel->column(static_cast<size_t>(kViews[v].column)).ints();
    for (size_t i = 0; i < keys.size(); ++i) {
      counts[v][static_cast<size_t>(keys[i])] += carrier < 0 || carriers[i] == carrier;
    }
  }
  return counts;
}

/// The carrier of bar `bar` of the brushed view; -1 when unknown.
int64_t CarrierOfBar(const ServeSnapshot& snap, rid_t bar) {
  const Table* from = nullptr;
  if (!snap.engine.GetResult(kViews[0].name, &from).ok() ||
      bar >= from->num_rows()) {
    return -1;
  }
  return from->column(0).ints()[bar];
}

/// The count of `key` in `want`; -1 for a key outside the view's range.
int64_t CountOf(const std::vector<int64_t>& want, int64_t key) {
  return key >= 0 && static_cast<size_t>(key) < want.size()
             ? want[static_cast<size_t>(key)]
             : -1;
}

/// True when the brush's linked bars and counts in every target view equal
/// `want`, the scan of the snapshot the brush ran on.
bool BrushMatchesScan(const ServeSnapshot& snap, const ViewCounts& want,
                      const ServeSession::BrushResult& r) {
  for (size_t v = 1; v < kNumViews; ++v) {
    const Table* to = nullptr;
    auto it = r.views.find(kViews[v].name);
    if (it == r.views.end() || !snap.engine.GetResult(kViews[v].name, &to).ok()) {
      return false;
    }
    const LinkedBrush& got = it->second;
    const size_t linked = static_cast<size_t>(
        std::count_if(want[v].begin(), want[v].end(), [](int64_t c) { return c > 0; }));
    if (got.rids.size() != linked || got.counts.size() != linked) return false;
    for (size_t i = 0; i < got.rids.size(); ++i) {
      if (got.rids[i] >= to->num_rows() ||
          CountOf(want[v], to->column(0).ints()[got.rids[i]]) != got.counts[i]) {
        return false;
      }
    }
  }
  return true;
}

/// True when the (key, count) rows of `out` are exactly the non-zero
/// entries of `want`.
bool CountsMatch(const Table& out, const std::vector<int64_t>& want) {
  const auto& keys = out.column(0).ints();
  const auto& cnt = out.column(1).ints();
  int64_t total = 0;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    if (CountOf(want, keys[r]) != cnt[r]) return false;
    total += cnt[r];
  }
  int64_t want_total = 0;
  for (int64_t c : want) want_total += c;
  return total == want_total;
}

/// True when every view of the snapshot holds exactly `want`, the counts
/// recomputed by a scan of its relation.
bool ViewsMatchScan(const ServeSnapshot& snap, const ViewCounts& want) {
  for (size_t v = 0; v < kNumViews; ++v) {
    const Table* out = nullptr;
    if (!snap.engine.GetResult(kViews[v].name, &out).ok() ||
        !CountsMatch(*out, want[v])) {
      return false;
    }
  }
  return true;
}

/// Traced runs only, at set-up: the optimizer and lineage-store work
/// behind the served views, timed as separate calls on the views of the
/// published snapshot. Optimizes each view's plan and encodes a copy of
/// its retained lineage with the adaptive codec.
void ProbeLayers(const Table& table, const ServeSnapshot& snap,
                 double input_rows, Report* report) {
  Tracer::Scope root("setup", 0);
  size_t raw = 0, encoded = 0;
  for (const ViewSpec& v : kViews) {
    LogicalPlan plan, optimized;
    Status st = CountBy(&table, v.column, &plan);
    if (st.ok()) {
      Tracer::Scope s("optimizer.optimize");
      st = OptimizePlan(plan, &optimized, nullptr);
    }
    report->Check(st.ok(), std::string("OptimizePlan ") + v.name + ": " +
                               st.ToString());
    const PlanResult* pr = nullptr;
    st = snap.engine.GetPlanResult(v.name, &pr);
    report->Check(st.ok(), std::string("GetPlanResult ") + v.name + ": " +
                               st.ToString());
    if (!st.ok()) continue;
    QueryLineage copy = pr->lineage;
    raw += copy.MemoryBytes();
    {
      Tracer::Scope s("lineage.encode");
      EncodeQueryLineage(&copy, LineageCodec::kAdaptive);
    }
    encoded += copy.MemoryBytes();
  }
  Tracer::Get().Count("lineage.raw_bytes_per_row", raw / input_rows);
  Tracer::Get().Count("lineage.encoded_bytes_per_row", encoded / input_rows);
  Tracer::Get().Count(
      "store.bytes", static_cast<double>(snap.engine.LineageMemoryStats().total_bytes));
}

struct SessionLog {
  std::vector<double> untraced_ms, traced_ms;
  std::vector<double> scan_ms;  ///< beside each untraced brush
  uint64_t checked = 0;
};

}  // namespace

Status RunCrossfilterServe(const RunConfig& cfg, Report* report) {
  smoke::bench::StabilizeAllocator();

  // The inputs are generated once and not timed: the table, the append
  // batches and (below) each session's bar sequence, all from the seed.
  const Table table = ontime::Generate(kBaseRows, cfg.seed);
  const size_t num_appends =
      static_cast<size_t>(cfg.seconds * 1000.0 / kAppendPeriodMs);
  std::vector<Table> batches;
  for (size_t k = 0; k <= num_appends; ++k) {
    batches.push_back(ontime::Generate(kBatchRows, cfg.seed * 1000003 + k + 1));
  }
  RssWatermark rss;
  if (!rss.Start()) report->Note("peak RSS could not be reset; it includes the inputs");

  // The set-ups run back to back before the timed window: spread through
  // it, as in the single-client workloads, they would run beside the
  // sessions and the writer and disturb what those measure.
  std::unique_ptr<ServeCore> core;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    core.reset();
    const auto t0 = Clock::now();
    SMOKE_RETURN_NOT_OK(SetUp(table, batches[0], &core));
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  size_t num_bars = 0;
  double bytes_per_row = 0;
  {
    ServeCore::SnapshotRef ref = core->AcquireSnapshot();
    const Table* out = nullptr;
    SMOKE_RETURN_NOT_OK(ref.snapshot->engine.GetResult(kViews[0].name, &out));
    num_bars = out->num_rows();
    const double input_rows = static_cast<double>(kBaseRows + kBatchRows);
    bytes_per_row =
        static_cast<double>(ref.snapshot->engine.LineageMemoryStats().total_bytes) /
        input_rows;
    if (cfg.trace) {
      Tracer::SetThreadActive(true);
      ProbeLayers(table, *ref.snapshot, input_rows, report);
      Tracer::SetThreadActive(false);
    }
  }

  // The same views without serving, for apps.brush_ms (traced run only).
  PlanCrossfilter plain("ontime");
  if (cfg.trace) {
    for (const ViewSpec& v : kViews) {
      LogicalPlan plan;
      SMOKE_RETURN_NOT_OK(CountBy(&table, v.column, &plan));
      SMOKE_RETURN_NOT_OK(plain.AddView(v.name, plan));
    }
  }

  // Warm-up brushes.
  {
    std::shared_ptr<ServeSession> warm;
    SMOKE_RETURN_NOT_OK(core->OpenSession("warmup", &warm));
    for (int i = 0; i < kWarmupBrushes; ++i) {
      ServeSession::BrushResult r;
      SMOKE_RETURN_NOT_OK(
          warm->Brush(kViews[0].name, static_cast<rid_t>(i % num_bars), &r));
    }
    SMOKE_RETURN_NOT_OK(core->CloseSession("warmup"));
  }

  std::mutex report_mu;  // sessions report checks concurrently
  auto check = [&](bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(report_mu);
    report->Check(ok, what);
  };

  std::atomic<bool> stop{false};
  std::vector<SessionLog> logs(kSessions);
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      SessionLog& log = logs[static_cast<size_t>(s)];
      std::shared_ptr<ServeSession> session;
      Status st = core->OpenSession("s" + std::to_string(s), &session);
      check(st.ok(), "OpenSession: " + st.ToString());
      if (!st.ok()) return;
      // Every bar once per pass, in an order shuffled by the seed.
      std::vector<int64_t> bars(num_bars);
      for (size_t b = 0; b < num_bars; ++b) bars[b] = static_cast<int64_t>(b);
      Deck pick_bar(std::move(bars), cfg.seed * 7727 + static_cast<uint64_t>(s));
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const rid_t bar = static_cast<rid_t>(pick_bar.Next());
        const bool traced = cfg.trace && i % 4 >= 2;
        // The brush holds a pin on the current snapshot; when no writer
        // published in between, the brush ran on exactly it.
        ServeCore::SnapshotRef pin = core->AcquireSnapshot();
        const int64_t carrier = CarrierOfBar(*pin.snapshot, bar);
        // The reference: the same linked counts by a scan of the pinned
        // snapshot. It goes first in even brushes and second in odd ones.
        ViewCounts want;
        double scan_ms = 0;
        auto scan = [&] {
          const auto t0 = Clock::now();
          want = ScanCounts(*pin.snapshot, carrier);
          scan_ms = MsSince(t0);
        };
        if (i % 2 == 0) scan();
        ServeSession::BrushResult r;
        double ms = 0;
        {
          Tracer::SetThreadActive(traced);
          Tracer::Scope root("brush", (static_cast<uint64_t>(s) << 40) | i);
          const auto t0 = Clock::now();
          {
            Tracer::Scope span("serve.brush");
            st = session->Brush(kViews[0].name, bar, &r);
          }
          ms = MsSince(t0);
          if (traced) {
            {
              Tracer::Scope span("serve.pin");
              ServeCore::SnapshotRef ref = core->AcquireSnapshot();
            }
            std::map<std::string, LinkedBrush> plain_out;
            Status pst;
            {
              Tracer::Scope span("apps.brush");
              pst = plain.Brush(kViews[0].name, bar, &plain_out);
            }
            check(pst.ok(), "PlanCrossfilter::Brush: " + pst.ToString());
            Tracer::Get().Count("serve.live_snapshots",
                                static_cast<double>(core->LiveSnapshots()));
          }
        }
        Tracer::SetThreadActive(false);
        if (i % 2 == 1) scan();

        check(st.ok(), "Brush: " + st.ToString());
        if (st.ok() && r.snapshot_version == pin.version()) {
          ++log.checked;
          check(carrier >= 0 && BrushMatchesScan(*pin.snapshot, want, r),
                "brush of carrier bar " + std::to_string(bar) +
                    " differs from a scan of snapshot " +
                    std::to_string(r.snapshot_version));
        }
        if (traced) {
          log.traced_ms.push_back(ms);
        } else {
          log.untraced_ms.push_back(ms);
          log.scan_ms.push_back(scan_ms);
        }
      }
      st = core->CloseSession("s" + std::to_string(s));
      check(st.ok(), "CloseSession: " + st.ToString());
    });
  }

  // The writer: append k is due at start + k * period, whatever happened
  // to the appends before it. It keeps a pin on the version each append
  // replaces until the next append has published, as a retained trace
  // would, so every append runs with one retired version alive. Without
  // it, whether a retired version was still alive at an append depended
  // on whether a brush happened to pin it then, and peak_rss_mb moved
  // with it from run to run.
  std::vector<double> append_ms, recount_ms, lateness_ms;
  ServeCore::SnapshotRef held;
  const auto start = Clock::now();
  for (size_t k = 1; k <= num_appends; ++k) {
    const auto due =
        start + std::chrono::microseconds(
                    static_cast<int64_t>((k - 1) * kAppendPeriodMs * 1000));
    std::this_thread::sleep_until(due);
    lateness_ms.push_back(MsSince(due));
    ServeCore::SnapshotRef replaced = core->AcquireSnapshot();
    const bool traced = cfg.trace && k % 2 == 0;
    Tracer::SetThreadActive(traced);
    Status st;
    {
      Tracer::Scope root("append", k);
      {
        Tracer::Scope span("serve.append_rows");
        st = core->AppendRows("ontime", batches[k]);
      }
      if (!traced) append_ms.push_back(MsSince(due));
      if (traced) {
        std::vector<RefreshStats> stats;
        {
          Tracer::Scope span("refresh.last_stats");
          stats = core->LastRefreshStats();
        }
        double delta = 0, scanned = 0, incremental = 0;
        for (const RefreshStats& rs : stats) {
          delta += static_cast<double>(rs.delta_rows);
          scanned += static_cast<double>(rs.rows_scanned);
          incremental += rs.incremental ? 1 : 0;
        }
        Tracer::Get().Count("refresh.delta_rows", delta);
        Tracer::Get().Count("refresh.rows_scanned", scanned);
        Tracer::Get().Count("refresh.incremental_frac",
                            stats.empty() ? 0 : incremental / stats.size());
        Tracer::Get().Count("epoch.retired",
                            static_cast<double>(core->EpochStats().retired));
        Tracer::Get().Count("serve.live_snapshots",
                            static_cast<double>(core->LiveSnapshots()));
      }
    }
    Tracer::SetThreadActive(false);
    held = std::move(replaced);
    check(st.ok(), "AppendRows batch " + std::to_string(k) + ": " + st.ToString());
    // The reference: the views of the published version recounted from
    // scratch by a scan of its relation, which they must equal.
    ServeCore::SnapshotRef pin = core->AcquireSnapshot();
    const auto t0 = Clock::now();
    const ViewCounts want = ScanCounts(*pin.snapshot, -1);
    if (!traced) recount_ms.push_back(MsSince(t0));
    check(ViewsMatchScan(*pin.snapshot, want),
          "views of snapshot " + std::to_string(pin.version()) +
              " differ from a scan of its relation");
  }
  // The last append was due at (n-1) periods; the window closes one period
  // later.
  std::this_thread::sleep_until(
      start + std::chrono::microseconds(
                  static_cast<int64_t>(num_appends * kAppendPeriodMs * 1000)));
  stop = true;
  for (std::thread& t : sessions) t.join();

  std::vector<double> untraced, traced, rel, scans;
  uint64_t checked = 0;
  for (const SessionLog& log : logs) {
    untraced.insert(untraced.end(), log.untraced_ms.begin(), log.untraced_ms.end());
    traced.insert(traced.end(), log.traced_ms.begin(), log.traced_ms.end());
    scans.insert(scans.end(), log.scan_ms.begin(), log.scan_ms.end());
    const std::vector<double> r = Ratios(log.untraced_ms, log.scan_ms);
    rel.insert(rel.end(), r.begin(), r.end());
    checked += log.checked;
  }
  check(checked > 0, "no brush could be checked against its snapshot");
  const Tail tail = TailOf(untraced);
  const std::vector<double> refresh_rel = Ratios(append_ms, recount_ms);
  const TieredScheduler::Stats admission = core->AdmissionStats();
  const EpochManager::Stats epochs = core->EpochStats();
  report->Note("crossfilter_serve: rows=" + std::to_string(kBaseRows) +
               " batch_rows=" + std::to_string(kBatchRows) +
               " appends=" + std::to_string(num_appends) + " seed=" +
               std::to_string(cfg.seed) + " brushes=" +
               std::to_string(untraced.size() + traced.size()) +
               " checked_brushes=" + std::to_string(checked));
  const double max_late =
      lateness_ms.empty()
          ? 0
          : *std::max_element(lateness_ms.begin(), lateness_ms.end());
  report->Note("writer lateness p50=" + std::to_string(Median(lateness_ms)) +
               " ms, max=" + std::to_string(max_late) + " ms");
  report->Note("brush_p50_ms=" + std::to_string(Median(untraced)) +
               " brush_tail_ms=" + std::to_string(tail.value) +
               " brush_scan_p50_ms=" + std::to_string(Median(scans)) +
               " refresh_p50_ms=" + std::to_string(Median(append_ms)) +
               " recount_p50_ms=" + std::to_string(Median(recount_ms)) +
               " refresh_p50_rel=" + std::to_string(Median(refresh_rel)));
  if (!cfg.trace) {
    ReportEndToEnd({setup_s, rel, bytes_per_row, rss.PeakMb()}, report);
    return Status::OK();
  }
  ReportPerLayer(untraced, traced, scans, report);
  const std::vector<Span> spans = Tracer::Get().Spans();
  const std::vector<CounterSample> counters = Tracer::Get().Counters();
  report->Detail("refresh_p50_ms", Median(append_ms), "ms");
  report->Detail("serve.pin_ms", MedianSpanMs(spans, "serve.pin"), "ms");
  report->Detail("serve.brush_ms", MedianSpanMs(spans, "serve.brush"), "ms");
  report->Detail("serve.append_rows_ms",
                 MedianSpanMs(spans, "serve.append_rows"), "ms");
  report->Detail("apps.brush_ms", MedianSpanMs(spans, "apps.brush"), "ms");
  report->Detail("admission.interactive_wait_ms",
                 admission.interactive.jobs == 0
                     ? 0
                     : admission.interactive.total_wait_ms /
                           static_cast<double>(admission.interactive.jobs),
                 "ms");
  report->Detail("admission.batch_tasks",
                 static_cast<double>(admission.batch.tasks), "count");
  report->Detail("admission.batch_max_queue",
                 static_cast<double>(admission.batch.max_queue_depth), "count");
  report->Detail("refresh.delta_rows",
                 MedianCounter(counters, "refresh.delta_rows"), "count");
  report->Detail("refresh.rows_scanned",
                 MedianCounter(counters, "refresh.rows_scanned"), "count");
  report->Detail("refresh.incremental_frac",
                 MedianCounter(counters, "refresh.incremental_frac"), "ratio");
  report->Detail("epoch.retired", MedianCounter(counters, "epoch.retired"),
                 "count");
  report->Detail("epoch.reclaimed", static_cast<double>(epochs.reclaimed),
                 "count");
  double live_max = 0;
  for (const CounterSample& c : counters) {
    if (c.name == "serve.live_snapshots") live_max = std::max(live_max, c.value);
  }
  report->Detail("serve.live_snapshots_max", live_max, "count");
  report->Detail("writer.lateness_p50_ms", Median(lateness_ms), "ms");
  WriteTrace(cfg, report);
  return Status::OK();
}

}  // namespace perfbench
