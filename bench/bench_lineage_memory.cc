// Lineage-memory figure (fig08-style, for the compressed lineage store):
// retained lineage bytes and backward/forward trace latency per rid-set
// codec {raw, range, bitmap, adaptive} across the ontime / TPC-H / zipf
// workload shapes:
//
//   zipf-select    contiguous selection over zipf (clustered rid runs —
//                  the range codec's best case; the bench exits nonzero if
//                  adaptive is not >= 4x smaller than raw here, and
//                  reports the backward-trace latency ratio as
//                  bt_slowdown_x — expected ~1x, acceptance bound 2x —
//                  without hard-asserting it, since latency is noisy in
//                  CI);
//   zipf-groupby   zipfian group-by (sorted group postings);
//   ontime-groupby crossfilter bars (29 dense carrier postings);
//   tpch-q1        TPC-H Q1 (selection + group-by over lineitem).
//
// Every row carries the engine's LineageMemoryStats() bytes alongside the
// timings, so CI can track compression ratio as a trajectory metric. The
// bench also cross-checks that backward traces are bit-identical across
// codecs and aborts loudly if they diverge.
#include "harness.h"

#include <cstdlib>

#include "core/smoke_engine.h"
#include "query/lineage_query.h"
#include "workloads/ontime.h"
#include "workloads/tpch.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

constexpr LineageCodec kCodecs[] = {LineageCodec::kRaw, LineageCodec::kRange,
                                    LineageCodec::kBitmap,
                                    LineageCodec::kAdaptive};

struct Series {
  double bytes = 0;
  double bt_ms = 0;  ///< mean ms per backward trace
  double ft_ms = 0;  ///< mean ms per forward trace
};

/// Retains `make_query(engine, name, codec)` under each codec in one engine,
/// measures per-codec lineage bytes + trace latency over the given seeds,
/// and emits one Row per codec. Returns raw/adaptive bytes for the
/// acceptance check. Backward results are cross-checked against raw.
void RunWorkload(const bench::Options& opts, SmokeEngine* engine,
                 const char* workload, const std::string& relation,
                 const std::function<Status(const std::string&,
                                            const CaptureOptions&)>& retain,
                 const std::vector<rid_t>& out_seeds,
                 const std::vector<rid_t>& in_seeds, Series* raw_out,
                 Series* adaptive_out) {
  std::vector<rid_t> reference;
  for (LineageCodec codec : kCodecs) {
    const std::string name = std::string(workload) + "-" +
                             LineageCodecName(codec);
    CaptureOptions copts = opts.WithThreads(CaptureOptions::Inject());
    copts.lineage_codec = codec;
    Status st = retain(name, copts);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: retain failed: %s\n", name.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }

    // Bit-identity cross-check vs the raw codec.
    std::vector<rid_t> bw;
    st = engine->Backward(name, relation, out_seeds, &bw);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: backward failed: %s\n", name.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    if (codec == LineageCodec::kRaw) {
      reference = bw;
    } else if (bw != reference) {
      std::fprintf(stderr, "%s: backward trace diverges from raw codec\n",
                   name.c_str());
      std::exit(1);
    }

    size_t bytes = 0;
    for (const auto& q : engine->LineageMemoryStats().queries) {
      if (q.name == name) bytes = q.bytes;
    }

    std::vector<rid_t> scratch;
    double bt_ms =
        bench::Measure(opts,
                       [&] {
                         for (rid_t o : out_seeds) {
                           // Timed loop; setup already validated the query.
                           engine->Backward(name, relation, {o}, &scratch)
                               .IgnoreError();
                         }
                       })
            .mean_ms /
        static_cast<double>(out_seeds.size());
    // Forward probes read the retained index directly (there is no lazy
    // forward fallback, so nothing else sits on this path).
    const PlanResult* retained = nullptr;
    if (!engine->GetPlanResult(name, &retained).ok()) std::exit(1);
    double ft_ms =
        bench::Measure(opts,
                       [&] {
                         for (rid_t i : in_seeds) {
                           ForwardRidsChecked(retained->lineage, relation, {i},
                                              /*dedup=*/true, &scratch)
                               .IgnoreError();
                         }
                       })
            .mean_ms /
        static_cast<double>(in_seeds.size());

    Series s{static_cast<double>(bytes), bt_ms, ft_ms};
    if (codec == LineageCodec::kRaw) *raw_out = s;
    if (codec == LineageCodec::kAdaptive) *adaptive_out = s;
    bench::Row(
        "figmem",
        std::string("workload=") + workload + ",codec=" +
            LineageCodecName(codec) + ",lineage_bytes=" +
            std::to_string(bytes) + ",bt_ms=" + bench::F(bt_ms) + ",ft_ms=" +
            bench::F(ft_ms) + ",threads=" + std::to_string(opts.threads) +
            "," + bench::LineageKv(*engine));
  }
}

std::vector<rid_t> SampleRange(size_t universe, size_t want) {
  std::vector<rid_t> seeds;
  const size_t step = universe / want == 0 ? 1 : universe / want;
  for (size_t r = 0; r < universe && seeds.size() < want; r += step) {
    seeds.push_back(static_cast<rid_t>(r));
  }
  return seeds;
}

void Run(const bench::Options& opts) {
  bench::Banner("Lineage memory",
                "Retained lineage bytes + trace latency per rid-set codec");

  const size_t zn = opts.smoke ? 200000 : (opts.full ? 10000000 : 2000000);
  const uint64_t groups = opts.smoke ? 500 : 5000;
  const size_t on = opts.smoke ? 100000 : (opts.full ? 5000000 : 1000000);
  const double sf = opts.scale > 0
                        ? opts.scale
                        : (opts.smoke ? 0.01 : (opts.full ? 1.0 : 0.1));

  Series raw, adaptive;

  // ---- zipf-select: the contiguous-selection (clustered) series ----
  {
    SmokeEngine engine;
    Table zipf = MakeZipfTable(zn, groups, 1.0);
    if (!engine.CreateTable("zipf", std::move(zipf)).ok()) std::exit(1);
    const Table* t = nullptr;
    if (!engine.GetTable("zipf", &t).ok()) std::exit(1);
    const rid_t lo = static_cast<rid_t>(zn / 4);
    const rid_t hi = static_cast<rid_t>(3 * zn / 4);
    RunWorkload(
        opts, &engine, "zipf-select", "zipf",
        [&](const std::string& name, const CaptureOptions& copts) {
          PlanBuilder b;
          int sel = b.Select(
              b.Scan(t, "zipf"),
              {Predicate::Int(zipf_table::kId, CmpOp::kGe,
                              static_cast<int64_t>(lo)),
               Predicate::Int(zipf_table::kId, CmpOp::kLt,
                              static_cast<int64_t>(hi))});
          LogicalPlan plan;
          SMOKE_RETURN_NOT_OK(b.Build(sel, &plan));
          return engine.ExecutePlan(name, plan, copts);
        },
        SampleRange(hi - lo, 64), SampleRange(zn, 64), &raw, &adaptive);

    // Acceptance floor for the clustered series.
    if (raw.bytes < 4 * adaptive.bytes) {
      std::fprintf(stderr,
                   "zipf-select: adaptive codec below 4x reduction "
                   "(raw=%.0f adaptive=%.0f)\n",
                   raw.bytes, adaptive.bytes);
      std::exit(1);
    }
    bench::Row("figmem",
               "workload=zipf-select,codec=summary,reduction_x=" +
                   bench::F(raw.bytes / adaptive.bytes) + ",bt_slowdown_x=" +
                   bench::F(adaptive.bt_ms / (raw.bt_ms > 0 ? raw.bt_ms : 1e-9)));
  }

  // ---- zipf-groupby: sorted group postings ----
  {
    SmokeEngine engine;
    Table zipf = MakeZipfTable(zn, groups, 1.0);
    if (!engine.CreateTable("zipf", std::move(zipf)).ok()) std::exit(1);
    const Table* t = nullptr;
    if (!engine.GetTable("zipf", &t).ok()) std::exit(1);
    SPJAQuery q;
    q.fact = t;
    q.fact_name = "zipf";
    q.group_by = {ColRef::Fact(zipf_table::kZ)};
    q.aggs = {AggSpec::Count("cnt"),
              AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
    RunWorkload(
        opts, &engine, "zipf-groupby", "zipf",
        [&](const std::string& name, const CaptureOptions& copts) {
          return engine.ExecuteQuery(name, q, copts);
        },
        SampleRange(groups, 64), SampleRange(zn, 64), &raw, &adaptive);
  }

  // ---- ontime-groupby: dense carrier postings (crossfilter bars) ----
  {
    SmokeEngine engine;
    Table flights = ontime::Generate(on);
    if (!engine.CreateTable("flights", std::move(flights)).ok()) std::exit(1);
    const Table* t = nullptr;
    if (!engine.GetTable("flights", &t).ok()) std::exit(1);
    SPJAQuery q;
    q.fact = t;
    q.fact_name = "flights";
    q.group_by = {ColRef::Fact(ontime::kCarrier)};
    q.aggs = {AggSpec::Count("cnt")};
    RunWorkload(
        opts, &engine, "ontime-groupby", "flights",
        [&](const std::string& name, const CaptureOptions& copts) {
          return engine.ExecuteQuery(name, q, copts);
        },
        SampleRange(static_cast<size_t>(ontime::kNumCarriers), 16),
        SampleRange(on, 64), &raw, &adaptive);
  }

  // ---- tpch-q1 ----
  {
    SmokeEngine engine;
    tpch::Database db = tpch::Generate(sf);
    const size_t li_rows = db.lineitem.num_rows();
    SPJAQuery q = tpch::MakeQ1(db);
    if (!engine.CreateTable("lineitem", std::move(db.lineitem)).ok()) {
      std::exit(1);
    }
    const Table* t = nullptr;
    if (!engine.GetTable("lineitem", &t).ok()) std::exit(1);
    q.fact = t;  // rebind to the engine-owned copy
    RunWorkload(
        opts, &engine, "tpch-q1", "lineitem",
        [&](const std::string& name, const CaptureOptions& copts) {
          return engine.ExecuteQuery(name, q, copts);
        },
        SampleRange(4, 4), SampleRange(li_rows, 64), &raw, &adaptive);
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::bench::Options opts = smoke::bench::Options::Parse(argc, argv);
  smoke::Run(opts);
  return 0;
}
