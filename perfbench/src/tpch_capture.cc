// tpch_capture: closed loop, one client thread, one capture thread. Each
// round runs the TPC-H Q1/Q3/Q10/Q12 mix through SmokeEngine::ExecuteQuery
// once without capture and once with Smoke-I capture (retained, then
// dropped), alternating which half goes first. Capture overhead is the
// median of the per-round ratio, never a ratio of separately measured
// means: the two halves of a round see the same machine state.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/smoke_engine.h"
#include "harness.h"
#include "lineage/store/lineage_store.h"
#include "optimizer/optimizer.h"
#include "tracer.h"
#include "workloads.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using namespace smoke;

// Scale factor 0.1: the mix takes 0.15-0.2 s per half on one core, so a
// 25 s window holds 60-80 rounds.
constexpr double kScaleFactor = 0.1;
constexpr int kWarmupRounds = 2;
constexpr int kMinRounds = 6;

struct MixQuery {
  std::string name;  // q1, q3, q10, q12
  SPJAQuery query;
  size_t input_rows = 0;  // rows of every base relation the query reads
  Table reference;        // no-capture output computed at set-up
  LogicalPlan plan;       // the same query as a plan, for OptimizePlan
};

size_t InputRows(const SPJAQuery& q) {
  size_t n = q.fact->num_rows();
  for (const SPJADim& d : q.dims) n += d.table->num_rows();
  return n;
}

/// Backward lineage of every Q1 group against a brute-force scan of
/// lineitem: the rows with l_shipdate <= 1998-09-02 and the group's
/// (returnflag, linestatus).
Status CheckQ1Lineage(SmokeEngine* engine, const MixQuery& q1,
                      const tpch::Database& db, Report* report) {
  SMOKE_RETURN_NOT_OK(
      engine->ExecuteQuery("q1_check", q1.query, CaptureMode::kInject));
  const Table* out = nullptr;
  SMOKE_RETURN_NOT_OK(engine->GetResult("q1_check", &out));
  std::map<std::pair<std::string, std::string>, rid_t> group_of;
  const auto& flags = out->column(0).strings();
  const auto& status = out->column(1).strings();
  for (size_t g = 0; g < out->num_rows(); ++g) {
    group_of[{flags[g], status[g]}] = static_cast<rid_t>(g);
  }
  std::vector<std::vector<rid_t>> expected(out->num_rows());
  const Table& li = db.lineitem;
  const auto& ship = li.column(tpch::kLShipdate).ints();
  const auto& lf = li.column(tpch::kLReturnflag).strings();
  const auto& ls = li.column(tpch::kLLinestatus).strings();
  bool unknown_group = false;
  for (size_t r = 0; r < li.num_rows(); ++r) {
    if (ship[r] > 19980902) continue;
    auto it = group_of.find({lf[r], ls[r]});
    if (it == group_of.end()) {
      unknown_group = true;
      continue;
    }
    expected[it->second].push_back(static_cast<rid_t>(r));
  }
  report->Check(!unknown_group, "Q1 output misses a group present in the scan");
  for (size_t g = 0; g < out->num_rows(); ++g) {
    std::vector<rid_t> rids;
    Status st = engine->Backward("q1_check", "lineitem",
                                 {static_cast<rid_t>(g)}, &rids,
                                 /*dedup=*/false);
    std::sort(rids.begin(), rids.end());
    report->Check(st.ok() && rids == expected[g],
                  "Q1 group " + std::to_string(g) +
                      " backward lineage differs from the lineitem scan");
  }
  return engine->DropResult("q1_check");
}

struct HalfResult {
  double ms = 0;          // summed ExecuteQuery time of the four queries
  size_t lineage_bytes = 0;
};

/// Runs the mix once in `mode` and checks every output against the
/// reference. Only the ExecuteQuery calls are timed.
HalfResult RunHalf(SmokeEngine* engine, std::vector<MixQuery>* mix,
                   CaptureMode mode, Report* report) {
  const bool inject = mode == CaptureMode::kInject;
  const char* suffix = inject ? "_inject" : "_none";
  HalfResult half;
  for (MixQuery& q : *mix) {
    const std::string span = std::string("core.execute") + suffix + "." + q.name;
    Status st;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(span.c_str());
      st = engine->ExecuteQuery(q.name + suffix, q.query, mode);
    }
    half.ms += MsSince(t0);
    const Table* out = nullptr;
    if (st.ok()) st = engine->GetResult(q.name + suffix, &out);
    report->Check(st.ok() && TablesEqual(*out, q.reference),
                  q.name + suffix + ": " +
                      (st.ok() ? "output differs from the no-capture output"
                               : st.ToString()));
  }
  if (inject) {
    LineageStoreStats stats;
    {
      Tracer::Scope s("store.stats");
      stats = engine->LineageMemoryStats();
    }
    half.lineage_bytes = stats.total_bytes;
    Tracer::Get().Count("store.bytes", static_cast<double>(stats.total_bytes));
  }
  return half;
}

Status DropHalf(SmokeEngine* engine, const std::vector<MixQuery>& mix,
                const char* suffix) {
  for (const MixQuery& q : mix) {
    SMOKE_RETURN_NOT_OK(engine->DropResult(q.name + suffix));
  }
  return Status::OK();
}

/// Traced rounds only: the layers ExecuteQuery does not expose on its own.
/// Encodes copies of the retained raw Smoke-I lineage with the adaptive
/// codec and optimizes the mix as plans. Runs outside the timed halves.
void ProbeLayers(SmokeEngine* engine, const std::vector<MixQuery>& mix,
                 size_t input_rows, Report* report) {
  std::vector<QueryLineage> copies;
  for (const MixQuery& q : mix) {
    const SPJAResult* r = nullptr;
    Status st = engine->GetResultObject(q.name + "_inject", &r);
    report->Check(st.ok(), "GetResultObject " + q.name + ": " + st.ToString());
    if (st.ok()) copies.push_back(r->lineage);
  }
  size_t raw = 0;
  for (const QueryLineage& l : copies) raw += l.MemoryBytes();
  {
    Tracer::Scope s("lineage.encode");
    for (QueryLineage& l : copies) EncodeQueryLineage(&l, LineageCodec::kAdaptive);
  }
  size_t encoded = 0;
  for (const QueryLineage& l : copies) encoded += l.MemoryBytes();
  const double rows = static_cast<double>(input_rows);
  Tracer::Get().Count("lineage.raw_bytes_per_row", static_cast<double>(raw) / rows);
  Tracer::Get().Count("lineage.encoded_bytes_per_row",
                      static_cast<double>(encoded) / rows);

  Tracer::Scope s("optimizer.optimize");
  for (const MixQuery& q : mix) {
    LogicalPlan optimized;
    Status st = OptimizePlan(q.plan, &optimized, nullptr);
    report->Check(st.ok(), "OptimizePlan " + q.name + ": " + st.ToString());
  }
}

/// Points the query's relations at the engine's copies of the tables.
void Rebind(const tpch::Database& db, const SmokeEngine& engine,
            SPJAQuery* q) {
  auto loaded = [&](const Table* t) {
    const char* name = t == &db.lineitem   ? "lineitem"
                       : t == &db.orders   ? "orders"
                       : t == &db.customer ? "customer"
                                           : "nation";
    const Table* out = nullptr;
    return engine.GetTable(name, &out).ok() ? out : t;
  };
  q->fact = loaded(q->fact);
  for (SPJADim& d : q->dims) d.table = loaded(d.table);
}

/// Set-up: a new engine, the tables loaded into it, and the mix's queries
/// and plans built over them.
Status SetUp(const tpch::Database& db, std::unique_ptr<SmokeEngine>* engine,
             std::vector<MixQuery>* mix) {
  *engine = std::make_unique<SmokeEngine>();
  SMOKE_RETURN_NOT_OK((*engine)->CreateTable("lineitem", db.lineitem));
  SMOKE_RETURN_NOT_OK((*engine)->CreateTable("orders", db.orders));
  SMOKE_RETURN_NOT_OK((*engine)->CreateTable("customer", db.customer));
  SMOKE_RETURN_NOT_OK((*engine)->CreateTable("nation", db.nation));
  mix->assign(4, MixQuery{});
  (*mix)[0].name = "q1";
  (*mix)[0].query = tpch::MakeQ1(db);
  (*mix)[1].name = "q3";
  (*mix)[1].query = tpch::MakeQ3(db);
  (*mix)[2].name = "q10";
  (*mix)[2].query = tpch::MakeQ10(db);
  (*mix)[3].name = "q12";
  (*mix)[3].query = tpch::MakeQ12(db);
  for (MixQuery& q : *mix) {
    Rebind(db, **engine, &q.query);
    q.input_rows = InputRows(q.query);
    PlanBuilder b;
    SMOKE_RETURN_NOT_OK(b.Build(b.SpjaBlock(q.query), &q.plan));
  }
  return Status::OK();
}

/// The no-capture output of each query, computed once after set-up; every
/// timed output is compared with it.
Status ComputeReferences(SmokeEngine* engine, std::vector<MixQuery>* mix) {
  for (MixQuery& q : *mix) {
    SMOKE_RETURN_NOT_OK(engine->ExecuteQuery("ref", q.query, CaptureMode::kNone));
    const Table* out = nullptr;
    SMOKE_RETURN_NOT_OK(engine->GetResult("ref", &out));
    q.reference = *out;
    SMOKE_RETURN_NOT_OK(engine->DropResult("ref"));
  }
  return Status::OK();
}

}  // namespace

Status RunTpchCapture(const RunConfig& cfg, Report* report) {
  smoke::bench::StabilizeAllocator();

  // The inputs are generated once and not timed.
  const tpch::Database db = tpch::Generate(kScaleFactor, cfg.seed);
  RssWatermark rss;
  if (!rss.Start()) report->Note("peak RSS could not be reset; it includes the inputs");

  // The first set-up builds the engine the run measures; the others run
  // on engines of their own between rounds of the timed window.
  std::vector<double> setup_s;
  auto timed_setup = [&](std::unique_ptr<SmokeEngine>* e,
                         std::vector<MixQuery>* m) -> Status {
    const auto t0 = Clock::now();
    SMOKE_RETURN_NOT_OK(SetUp(db, e, m));
    setup_s.push_back(MsSince(t0) / 1000.0);
    return Status::OK();
  };
  std::unique_ptr<SmokeEngine> engine;
  std::vector<MixQuery> mix;
  SMOKE_RETURN_NOT_OK(timed_setup(&engine, &mix));
  size_t input_rows = 0;
  for (const MixQuery& q : mix) input_rows += q.input_rows;
  SmokeEngine& eng = *engine;
  SMOKE_RETURN_NOT_OK(ComputeReferences(&eng, &mix));
  SMOKE_RETURN_NOT_OK(CheckQ1Lineage(&eng, mix[0], db, report));

  std::vector<double> base_ms, capture_ms, ratio, traced_capture_ms;
  double bytes_per_row = -1;
  SetupSchedule setups(cfg.seconds);
  Clock::time_point timed_start = Clock::now();
  for (int round = 0;; ++round) {
    const bool warmup = round < kWarmupRounds;
    if (round == kWarmupRounds) timed_start = Clock::now();
    while (!warmup && setups.Due(MsSince(timed_start))) {
      std::unique_ptr<SmokeEngine> extra;
      std::vector<MixQuery> extra_mix;
      SMOKE_RETURN_NOT_OK(timed_setup(&extra, &extra_mix));
    }
    if (!warmup && round >= kWarmupRounds + kMinRounds &&
        MsSince(timed_start) >= cfg.seconds * 1000.0) {
      break;
    }
    // Traced rounds come in pairs so both half orders are traced.
    const bool traced = cfg.trace && (round / 2) % 2 == 1;
    Tracer::SetThreadActive(traced);
    HalfResult none, inject;
    {
      Tracer::Scope root("round", static_cast<uint64_t>(round));
      const bool none_first = round % 2 == 0;
      if (none_first) none = RunHalf(&eng, &mix, CaptureMode::kNone, report);
      inject = RunHalf(&eng, &mix, CaptureMode::kInject, report);
      if (!none_first) none = RunHalf(&eng, &mix, CaptureMode::kNone, report);
      if (traced) ProbeLayers(&eng, mix, input_rows, report);
      Tracer::Scope drop("core.drop_result");
      SMOKE_RETURN_NOT_OK(DropHalf(&eng, mix, "_none"));
      SMOKE_RETURN_NOT_OK(DropHalf(&eng, mix, "_inject"));
    }
    Tracer::SetThreadActive(false);

    const double bpr = static_cast<double>(inject.lineage_bytes) /
                       static_cast<double>(input_rows);
    if (bytes_per_row < 0) bytes_per_row = bpr;
    report->Check(bpr == bytes_per_row,
                  "stored lineage bytes changed between rounds");
    if (warmup) continue;
    if (traced) {
      traced_capture_ms.push_back(inject.ms);
      continue;
    }
    base_ms.push_back(none.ms);
    capture_ms.push_back(inject.ms);
    ratio.push_back(inject.ms / none.ms);
  }

  report->Note("tpch_capture: sf=" + std::to_string(kScaleFactor) + " seed=" +
               std::to_string(cfg.seed) + " rounds=" +
               std::to_string(capture_ms.size() + traced_capture_ms.size()) +
               " input_rows=" + std::to_string(input_rows));
  // The operation is the capture half and its reference the no-capture
  // half of the same round, so op_p50_rel is the capture overhead. Their
  // absolute medians are per-layer metrics, not end-to-end ones: on a
  // shared host whole runs of this memory-bound mix slow down by up to 40%
  // for a minute or more, which no statistic within one run can remove.
  // Their per-round ratio does not move with it.
  report->Note("base_ms=" + std::to_string(Median(base_ms)) +
               " capture_ms=" + std::to_string(Median(capture_ms)));
  if (!cfg.trace) {
    ReportEndToEnd({setup_s, ratio, bytes_per_row, rss.PeakMb()}, report);
    return Status::OK();
  }
  ReportPerLayer(capture_ms, traced_capture_ms, base_ms, report);
  const std::vector<Span> spans = Tracer::Get().Spans();
  for (const MixQuery& q : mix) {
    report->Detail("core.execute_none_ms." + q.name,
                   MedianSpanMs(spans, "core.execute_none." + q.name), "ms");
    report->Detail("core.execute_inject_ms." + q.name,
                   MedianSpanMs(spans, "core.execute_inject." + q.name), "ms");
  }
  WriteTrace(cfg, report);
  return Status::OK();
}

}  // namespace perfbench
