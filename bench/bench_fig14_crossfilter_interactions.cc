// Figure 14: per-interaction (1D brush) latency for each crossfilter view,
// against the 150ms interactive threshold. Expected shape: BT+FT under
// 150ms for essentially all interactions (paper: all but 5 of 8,100) and
// <10ms on the high-cardinality spatiotemporal views; BT above BT+FT; Lazy
// worst; interactions brushing bars whose lineage covers a large input
// fraction are the slow tail.
//
// mode=Plan brushes the same four views retained as plans in a
// PlanCrossfilter (a direct probe of their end-to-end backward and forward
// indexes, which also materializes the linked rows): it should track BT+FT,
// since both do work proportional to the bar's lineage, not the table. The
// two modes brush each bar in turn, so their rows are directly comparable
// (CI bounds Plan's p50_us at 10x BT+FT's per view).
#include "harness.h"

#include <algorithm>
#include <functional>
#include <map>

#include "apps/crossfilter.h"
#include "apps/plan_crossfilter.h"
#include "workloads/ontime.h"

namespace smoke {
namespace {

const char* kViewNames[] = {"LatLon", "Date", "DepDelay", "Carrier"};

struct Mode {
  const char* name;
  std::function<void(size_t view, size_t bar)> brush;
};

/// Brushes every `sample`-th bar of view `v` once with each mode and prints
/// one fig14 row per mode. The modes take turns bar by bar, in an order
/// that rotates, so background load on the host hits them alike and their
/// latencies stay comparable.
void Measure(const std::vector<Mode>& modes, size_t v, size_t num_bars,
             size_t sample) {
  std::vector<std::vector<double>> lat(modes.size());
  for (size_t bar = 0; bar < num_bars; bar += sample) {
    for (size_t i = 0; i < modes.size(); ++i) {
      const size_t m = (bar / sample + i) % modes.size();
      WallTimer t;
      modes[m].brush(v, bar);
      lat[m].push_back(t.ElapsedMs());
    }
  }
  for (size_t m = 0; m < modes.size(); ++m) {
    std::vector<double>& l = lat[m];
    std::sort(l.begin(), l.end());
    auto pct = [&](double p) {
      const double at = p * static_cast<double>(l.size());
      return l[std::min(l.size() - 1, static_cast<size_t>(at))];
    };
    const auto over_150 = std::count_if(
        l.begin(), l.end(), [](double ms) { return ms > 150.0; });
    bench::Row("fig14", std::string("mode=") + modes[m].name +
                            ",view=" + kViewNames[v] +
                            ",interactions=" + std::to_string(l.size()) +
                            ",p50_ms=" + bench::F(pct(0.5)) +
                            ",p50_us=" + bench::F(pct(0.5) * 1000.0) +
                            ",p95_ms=" + bench::F(pct(0.95)) +
                            ",max_ms=" + bench::F(l.back()) +
                            ",over_150ms=" + std::to_string(over_150));
  }
}

void Run(const bench::Options& opts) {
  const size_t rows = opts.smoke ? 200000 : (opts.full ? 20000000 : 2000000);
  bench::Banner("Figure 14",
                "Per-interaction crossfilter latency by view (150ms line)");
  std::printf("rows=%zu (paper: 123.5M)\n", rows);
  Table data = ontime::Generate(rows);
  const std::vector<int> dims = {ontime::kLatLonBin, ontime::kDateBin,
                                 ontime::kDelayBin, ontime::kCarrier};

  struct Strategy {
    const char* name;
    Crossfilter::Strategy strategy;
    size_t sample;
  };
  const Strategy strategies[] = {
      {"Lazy", Crossfilter::Strategy::kLazy, 200},
      {"BT", Crossfilter::Strategy::kBT, 20},
  };
  for (const Strategy& s : strategies) {
    Crossfilter cf(data, dims);
    cf.Initialize(s.strategy);
    const Mode mode{s.name, [&cf](size_t v, size_t bar) { cf.Brush(v, bar); }};
    for (size_t v = 0; v < cf.num_views(); ++v) {
      Measure({mode}, v, cf.NumBars(v), s.sample);
    }
  }

  // BT+FT and the plan crossfilter over the same views brush every bar,
  // side by side.
  Crossfilter btft(data, dims);
  btft.Initialize(Crossfilter::Strategy::kBTFT);
  PlanCrossfilter plan("ontime");
  for (size_t v = 0; v < dims.size(); ++v) {
    PlanBuilder b;
    GroupBySpec spec;
    spec.keys = {dims[v]};
    spec.aggs = {AggSpec::Count("cnt")};
    LogicalPlan p;
    SMOKE_CHECK(b.Build(b.GroupBy(b.Scan(&data, "ontime"), spec), &p).ok());
    SMOKE_CHECK(plan.AddView(kViewNames[v], p).ok());
  }
  const std::vector<Mode> modes = {
      {"BT+FT", [&btft](size_t v, size_t bar) { btft.Brush(v, bar); }},
      {"Plan", [&plan](size_t v, size_t bar) {
         std::map<std::string, PlanCrossfilter::Linked> linked;
         SMOKE_CHECK(
             plan.Brush(kViewNames[v], static_cast<rid_t>(bar), &linked).ok());
       }}};
  for (size_t v = 0; v < btft.num_views(); ++v) {
    Measure(modes, v, btft.NumBars(v), 1);
  }
  std::printf("(DataCube responses are array lookups — effectively "
              "instantaneous, as in the paper; see Figure 13 for its build "
              "cost.)\n");
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
