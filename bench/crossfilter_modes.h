// The paper's crossfilter brush strategies (Section 6.5.1, Figures 13–14)
// as calls into the engine. Four Ontime views — COUNT(*) grouped by lat/lon
// bin, date bin, delay bin and carrier — are single-SpjaBlock plans over
// the relation "ontime". Brushing bar `b` of view `v` recounts every other
// view `w` over the rows behind that bar:
//
//  - Lazy:     TraceBuilder::Backward(view_v, "ontime", {b})
//                  .GroupBy(dim_w).Agg(COUNT) under TraceStrategy::kLazy —
//              a selection rescan of the table per target view;
//  - BT:       the same query under kIndexed — the fused rid-stream
//              aggregate over the captured backward index;
//  - DataCube: the same query under kCube, over a (v, w) block that
//              materialized COUNT per w bin for every v bar at capture time
//              (cube push-down); its build is the cold-start cost;
//  - Plan:     BrushLinkedPlans — the engine's BT+FT: one backward probe,
//              forward-counted into every target view's retained index;
//  - BT+FT:    the paper's Listing 1 as a reference loop: `++counts[fw[r]]`
//              over plain vectors decoded once from the views' indexes.
//
// Shared by the Figure 13/14 benches and crossfilter_test, so the strategies
// the figures time are the ones the test checks against a brute-force count.
#ifndef SMOKE_BENCH_CROSSFILTER_MODES_H_
#define SMOKE_BENCH_CROSSFILTER_MODES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/plan_crossfilter.h"
#include "common/macros.h"
#include "query/trace_builder.h"
#include "workloads/ontime.h"

namespace smoke {
namespace bench {

constexpr size_t kNumCrossfilterViews = 4;
inline const char* const kCrossfilterViewNames[kNumCrossfilterViews] = {
    "LatLon", "Date", "DepDelay", "Carrier"};
inline const int kCrossfilterDims[kNumCrossfilterViews] = {
    ontime::kLatLonBin, ontime::kDateBin, ontime::kDelayBin,
    ontime::kCarrier};

/// Per view, a brush's linked counts keyed by bin value; the brushed view's
/// own entry stays empty.
using BrushCounts = std::vector<std::map<int64_t, int64_t>>;

/// One brush strategy: brushes bar `bar` of view `v` into every other view
/// and, when `out` is set, decodes the linked counts into it.
struct BrushMode {
  const char* name;
  std::function<Status(size_t v, rid_t bar, BrushCounts* out)> brush;
};

/// \brief The four Ontime views plus what each strategy reads besides them.
class CrossfilterModes {
 public:
  /// Runs the view plans over `data` (relation "ontime") under `opts`.
  /// Brushes need an Inject capture: BT reads the backward index, Plan and
  /// BT+FT both indexes; Lazy and DataCube read none, so both may be off.
  CrossfilterModes(const Table& data, const CaptureOptions& opts)
      : data_(data) {
    for (int dim : kCrossfilterDims) {
      views_.emplace_back();
      SMOKE_CHECK(ExecutePlan(ViewPlan(dim, {}), opts, &views_.back()).ok());
    }
  }
  CrossfilterModes(const CrossfilterModes&) = delete;
  CrossfilterModes& operator=(const CrossfilterModes&) = delete;

  /// Builds the DataCube blocks: for every ordered view pair (v, w), v's
  /// group-by with COUNT per w bin pushed down, no lineage captured. Block
  /// row b is bar b of view v (same grouping, same first-encounter order).
  void BuildCubes() {
    CaptureOptions opts = CaptureOptions::Inject();
    opts.capture_backward = false;
    opts.capture_forward = false;
    cubes_.clear();
    cubes_.resize(kNumCrossfilterViews);
    for (size_t v = 0; v < kNumCrossfilterViews; ++v) {
      cubes_[v].resize(kNumCrossfilterViews);
      for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
        if (w == v) continue;
        SPJAPushdown push;
        push.cube_cols = {kCrossfilterDims[w]};
        push.cube_aggs = {AggSpec::Count("cnt")};
        PlanResult& cube = cubes_[v][w];
        SMOKE_CHECK(ExecutePlan(ViewPlan(kCrossfilterDims[v], push), opts,
                                &cube)
                        .ok());
        SMOKE_CHECK(cube.output.column(0).ints() ==
                    views_[v].output.column(0).ints());
      }
    }
  }

  /// Decodes Listing 1's inputs from the views' retained indexes: per view,
  /// each bar's rows (backward) and each row's bar (forward).
  void DecodeListing1() {
    bars_.assign(kNumCrossfilterViews, {});
    bar_of_.assign(kNumCrossfilterViews, {});
    for (size_t v = 0; v < kNumCrossfilterViews; ++v) {
      const QueryLineage& lineage = views_[v].lineage;
      SMOKE_CHECK(lineage.FindInput("ontime") == 0);
      const TableLineage& tl = lineage.input(0);
      SMOKE_CHECK(!tl.backward.empty() && !tl.forward.empty());
      bars_[v].resize(NumBars(v));
      for (rid_t b = 0; b < NumBars(v); ++b) {
        tl.backward.TraceInto(b, &bars_[v][b]);
      }
      bar_of_[v].resize(data_.num_rows());
      for (rid_t r = 0; r < data_.num_rows(); ++r) {
        tl.forward.ForEachRelated(r, [&](rid_t b) { bar_of_[v][r] = b; });
      }
    }
  }

  size_t NumBars(size_t v) const { return views_[v].output.num_rows(); }
  const PlanResult& view(size_t v) const { return views_[v]; }
  /// The bin value of bar `bar` of view `v` (a view row is bin, COUNT).
  int64_t BinOf(size_t v, rid_t bar) const {
    return views_[v].output.column(0).ints()[bar];
  }

  /// Captured lineage of the views plus the materialized cube cells.
  size_t IndexBytes() const {
    size_t bytes = 0;
    for (const PlanResult& v : views_) bytes += v.lineage.MemoryBytes();
    for (const auto& row : cubes_) {
      for (const PlanResult& c : row) {
        bytes += c.lineage.MemoryBytes() + c.cube.MemoryBytes();
      }
    }
    return bytes;
  }

  BrushMode Lazy() const { return TraceMode("Lazy", TraceStrategy::kLazy); }
  BrushMode BT() const { return TraceMode("BT", TraceStrategy::kIndexed); }
  /// Needs BuildCubes().
  BrushMode DataCube() const {
    return TraceMode("DataCube", TraceStrategy::kCube);
  }

  BrushMode Plan() const {
    return {"Plan", [this](size_t v, rid_t bar, BrushCounts* out) {
              std::vector<BrushTarget> targets;
              for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
                if (w != v) targets.push_back({kCrossfilterViewNames[w],
                                               &views_[w]});
              }
              std::map<std::string, LinkedBrush> linked;
              SMOKE_RETURN_NOT_OK(BrushLinkedPlans(views_[v], bar, "ontime",
                                                   targets, &linked));
              if (out == nullptr) return Status::OK();
              out->assign(kNumCrossfilterViews, {});
              for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
                if (w == v) continue;
                const LinkedBrush& lb = linked.at(kCrossfilterViewNames[w]);
                for (size_t i = 0; i < lb.rids.size(); ++i) {
                  (*out)[w][BinOf(w, lb.rids[i])] += lb.counts[i];
                }
              }
              return Status::OK();
            }};
  }

  /// Listing 1; needs DecodeListing1().
  BrushMode BTFT() const {
    return {"BT+FT", [this](size_t v, rid_t bar, BrushCounts* out) {
              std::vector<std::vector<int64_t>> counts(kNumCrossfilterViews);
              const std::vector<rid_t>& rows = bars_[v][bar];
              for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
                if (w == v) continue;
                const std::vector<rid_t>& fw = bar_of_[w];
                counts[w].assign(NumBars(w), 0);
                for (rid_t r : rows) ++counts[w][fw[r]];
              }
              if (out == nullptr) return Status::OK();
              out->assign(kNumCrossfilterViews, {});
              for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
                for (rid_t b = 0; b < counts[w].size(); ++b) {
                  if (counts[w][b] != 0) (*out)[w][BinOf(w, b)] = counts[w][b];
                }
              }
              return Status::OK();
            }};
  }

 private:
  /// COUNT(*) of the table grouped by column `dim`, as one SpjaBlock.
  LogicalPlan ViewPlan(int dim, SPJAPushdown push) const {
    SPJAQuery q;
    q.fact = &data_;
    q.fact_name = "ontime";
    q.group_by = {ColRef::Fact(dim)};
    q.aggs = {AggSpec::Count("cnt")};
    PlanBuilder b;
    LogicalPlan plan;
    SMOKE_CHECK(b.Build(b.SpjaBlock(std::move(q), std::move(push)), &plan)
                    .ok());
    return plan;
  }

  /// A brush as one TraceBuilder drill-down per target view: the brushed
  /// bar's rows grouped by the target's dimension, counted.
  BrushMode TraceMode(const char* name, TraceStrategy strategy) const {
    return {name, [this, strategy](size_t v, rid_t bar, BrushCounts* out) {
              if (out != nullptr) out->assign(kNumCrossfilterViews, {});
              for (size_t w = 0; w < kNumCrossfilterViews; ++w) {
                if (w == v) continue;
                const PlanResult& src = strategy == TraceStrategy::kCube
                                            ? cubes_[v][w]
                                            : views_[v];
                PlanResult pr;
                SMOKE_RETURN_NOT_OK(
                    TraceBuilder::Backward(TraceSource::FromPlan(src),
                                           "ontime", {bar})
                        .GroupBy(GroupExpr::Raw(kCrossfilterDims[w], "bin"))
                        .Agg(AggSpec::Count("cnt"))
                        .Strategy(strategy)
                        .Execute(CaptureOptions::None(), &pr));
                if (out == nullptr) continue;
                const auto& bins = pr.output.column(0).ints();
                const auto& cnts = pr.output.column(1).ints();
                for (size_t i = 0; i < bins.size(); ++i) {
                  (*out)[w][bins[i]] += cnts[i];
                }
              }
              return Status::OK();
            }};
  }

  const Table& data_;
  std::vector<PlanResult> views_;                 // per view
  std::vector<std::vector<PlanResult>> cubes_;    // [v][w], v != w
  std::vector<std::vector<std::vector<rid_t>>> bars_;  // [v][bar] -> rows
  std::vector<std::vector<rid_t>> bar_of_;        // [v][row] -> bar
};

}  // namespace bench
}  // namespace smoke

#endif  // SMOKE_BENCH_CROSSFILTER_MODES_H_
