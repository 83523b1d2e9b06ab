// Figure 13: cumulative latency to run the initial crossfilter view
// queries (with capture / cube build) and then brush every bar of every
// view. Expected shape: BT+FT — the engine's Plan brush and the Listing 1
// reference loop — completes the whole benchmark fastest and before the
// data cube finishes building; BT beats Lazy; the cube's interactions are
// near-instantaneous but its offline build dominates (the cold-start
// problem). Every strategy but the Listing 1 reference is an engine call
// (crossfilter_modes.h).
#include "harness.h"

#include <functional>

#include "crossfilter_modes.h"

namespace smoke {
namespace {

void Run(const bench::Options& opts) {
  const size_t rows = opts.smoke ? 200000 : (opts.full ? 20000000 : 2000000);
  bench::Banner("Figure 13",
                "Crossfilter cumulative latency (Ontime-like; 4 views; "
                "brush every bar)");
  std::printf("rows=%zu (paper: 123.5M)\n", rows);
  Table data = ontime::Generate(rows);

  // Capture of the initial view queries: none for Lazy and DataCube (whose
  // brushes read no index of the views), backward for BT, both for BT+FT.
  CaptureOptions no_index = CaptureOptions::Inject();
  no_index.capture_backward = false;
  no_index.capture_forward = false;
  CaptureOptions backward = CaptureOptions::Inject();
  backward.capture_forward = false;
  const CaptureOptions both = CaptureOptions::Inject();

  struct Strategy {
    const char* name;
    CaptureOptions capture;
    size_t brush_sample;  // brush every k-th bar (1 = all); Lazy is too
                          // slow to brush all ~8100 bars at full scale.
    /// Builds what the brushes read beyond the views; returns the mode.
    std::function<bench::BrushMode(bench::CrossfilterModes*)> prepare;
  };
  const Strategy strategies[] = {
      {"Lazy", no_index, 100,
       [](bench::CrossfilterModes* xf) { return xf->Lazy(); }},
      {"BT", backward, 10,
       [](bench::CrossfilterModes* xf) { return xf->BT(); }},
      {"BT+FT", both, 1,
       [](bench::CrossfilterModes* xf) {
         xf->DecodeListing1();
         return xf->BTFT();
       }},
      {"Plan", both, 1,
       [](bench::CrossfilterModes* xf) { return xf->Plan(); }},
      {"DataCube", no_index, 1,
       [](bench::CrossfilterModes* xf) {
         xf->BuildCubes();
         return xf->DataCube();
       }},
  };

  for (const Strategy& s : strategies) {
    WallTimer init_timer;
    bench::CrossfilterModes xf(data, s.capture);
    const bench::BrushMode mode = s.prepare(&xf);
    const double init_ms = init_timer.ElapsedMs();

    size_t total_bars = 0, brushed = 0;
    WallTimer brush_timer;
    for (size_t v = 0; v < bench::kNumCrossfilterViews; ++v) {
      total_bars += xf.NumBars(v);
      for (size_t bar = 0; bar < xf.NumBars(v); bar += s.brush_sample) {
        SMOKE_CHECK(mode.brush(v, static_cast<rid_t>(bar), nullptr).ok());
        ++brushed;
      }
    }
    const double brush_ms = brush_timer.ElapsedMs();
    // Extrapolate sampled strategies to the full interaction count.
    const double est_total_brush = brush_ms *
                                   static_cast<double>(total_bars) /
                                   static_cast<double>(brushed);
    bench::Row("fig13",
               std::string("mode=") + s.name + ",init_ms=" +
                   bench::F(init_ms) + ",brushed=" + std::to_string(brushed) +
                   ",brush_ms=" + bench::F(brush_ms) +
                   ",est_cumulative_ms=" + bench::F(init_ms + est_total_brush) +
                   ",total_bars=" + std::to_string(total_bars) +
                   ",index_mb=" +
                   bench::F(static_cast<double>(xf.IndexBytes()) / 1e6));
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
