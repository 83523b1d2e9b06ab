// Figure 14: per-interaction (1D brush) latency for each crossfilter view,
// against the 150ms interactive threshold. Expected shape: BT+FT under
// 150ms for essentially all interactions (paper: all but 5 of 8,100) and
// <10ms on the high-cardinality spatiotemporal views; BT above BT+FT; Lazy
// worst; interactions brushing bars whose lineage covers a large input
// fraction are the slow tail.
//
// Every strategy runs over the same four views (crossfilter_modes.h). mode=Plan is the engine's BT+FT (BrushLinkedPlans:
// a direct probe of the views' end-to-end backward and forward indexes,
// which also materializes the linked rows); mode=BT+FT is the paper's
// Listing 1 as a reference loop over plain vectors. Plan should track
// BT+FT, since both do work proportional to the bar's lineage, not the
// table. The two modes brush each bar in turn, so their rows are directly
// comparable (CI bounds Plan's p50_us at 10x BT+FT's per view). DataCube
// brushes are cube lookups; Figure 13 reports their build cost.
#include "harness.h"

#include <algorithm>
#include <utility>

#include "crossfilter_modes.h"

namespace smoke {
namespace {

using bench::BrushMode;

/// Brushes every `sample`-th bar of view `v` once with each mode and prints
/// one fig14 row per mode. The modes take turns bar by bar, in an order
/// that rotates, so background load on the host hits them alike and their
/// latencies stay comparable.
void Measure(const std::vector<BrushMode>& modes, size_t v, size_t num_bars,
             size_t sample) {
  std::vector<std::vector<double>> lat(modes.size());
  for (size_t bar = 0; bar < num_bars; bar += sample) {
    for (size_t i = 0; i < modes.size(); ++i) {
      const size_t m = (bar / sample + i) % modes.size();
      WallTimer t;
      SMOKE_CHECK(modes[m].brush(v, static_cast<rid_t>(bar), nullptr).ok());
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
                            ",view=" + bench::kCrossfilterViewNames[v] +
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
  bench::CrossfilterModes xf(data, CaptureOptions::Inject());
  xf.BuildCubes();
  xf.DecodeListing1();

  const size_t nv = bench::kNumCrossfilterViews;
  // Lazy and BT brush a sample of the bars.
  const std::pair<BrushMode, size_t> sampled[] = {{xf.Lazy(), 200},
                                                  {xf.BT(), 20}};
  for (const auto& [mode, sample] : sampled) {
    for (size_t v = 0; v < nv; ++v) Measure({mode}, v, xf.NumBars(v), sample);
  }
  // BT+FT and Plan brush every bar, side by side; then DataCube.
  for (size_t v = 0; v < nv; ++v) {
    Measure({xf.BTFT(), xf.Plan()}, v, xf.NumBars(v), 1);
  }
  for (size_t v = 0; v < nv; ++v) {
    Measure({xf.DataCube()}, v, xf.NumBars(v), 1);
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
