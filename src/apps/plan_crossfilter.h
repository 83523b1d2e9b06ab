// Crossfilter over retained plans (paper Section 6.5.1, generalized per
// ROADMAP "Crossfilter on plans"): each view is an arbitrary retained
// LogicalPlan — a plain group-by histogram, an aggregate-over-aggregate
// rollup, a join of aggregated subplans — and linked brushing is Trace∘Trace
// (backward from the brushed output row to the shared base relation,
// forward into every other view) evaluated as a direct probe of the views'
// retained end-to-end indexes: the paper's BT+FT strategy over any view
// shape with captured lineage on the shared relation. The same chain as a
// compiled lineage query (TraceBuilder::Backward(...).ThenForward(...))
// gives the same answer and is the test reference. Figures 13–14 time it
// as the BT+FT strategy beside the TraceBuilder strategies (Lazy, BT,
// DataCube) over the same views.
#ifndef SMOKE_APPS_PLAN_CROSSFILTER_H_
#define SMOKE_APPS_PLAN_CROSSFILTER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/executor.h"
#include "plan/plan.h"

namespace smoke {

/// One view's share of a linked brush: the reachable output rows, the
/// shared-relation witness count per row, and the rows materialized.
struct LinkedBrush {
  std::vector<rid_t> rids;      ///< linked output rows of the target view
  std::vector<int64_t> counts;  ///< shared-relation witnesses per row
  Table rows;                   ///< the linked rows, materialized
};

/// One view a brush links into.
struct BrushTarget {
  std::string name;                   ///< its key in the brush result map
  const PlanResult* result = nullptr;  ///< its retained result (borrowed)
};

/// Brushes output row `out_rid` of `from` into every target through
/// `relation` (Trace∘Trace). For each target, `(*out)[name]` holds the
/// target rows reachable through the shared relation, in first-seen order,
/// with counts[i] = the (relation row, forward edge) pairs reaching rids[i]
/// over the brushed row's deduplicated backward lineage, and the reached
/// rows materialized. For a group-by COUNT(*) view the counts are the
/// brushed bar counts: the paper's BT+FT strategy.
///
/// Cost: one backward probe of `from` shared by all targets — read in
/// place when raw, decoded chunk by chunk when Elias-Fano or bitmap — and
/// each chunk forward-counted into every target (raw and bit-packed 1:1
/// forwards on their own loops, a packed one counted by code), plus a
/// zero-filled counter per target output row — O(|bar lineage| × targets
/// + Σ target output rows). For aggregated targets (histograms, rollups)
/// the output is small
/// and the brush is independent of the relation's size; a select/project
/// target's output is relation-sized, and so is its counter. A backward
/// list that is not ascending, as a rollup's or a join's can be, is
/// deduplicated over a bitmap up to its largest rid; a group-by's never
/// needs it. No plan is compiled or executed and no morsels are scheduled;
/// the probes read the retained indexes in whatever form the lineage store
/// holds them (raw or encoded).
///
/// Fails, like the compiled chain, with NotFound when a result has no
/// lineage on `relation`, and InvalidArgument when a needed index was not
/// captured or was evicted, or when `out_rid`, a relation row or a reached
/// target row is out of range.
///
/// Session-safe: inputs are const, all state is local to the call, and the
/// retained lineage indexes are immutable after finalize — any number of
/// concurrent brushes may share the same PlanResults (the serving layer
/// calls this from many sessions over one snapshot).
Status BrushLinkedPlans(const PlanResult& from, rid_t out_rid,
                        const std::string& relation,
                        const std::vector<BrushTarget>& targets,
                        std::map<std::string, LinkedBrush>* out);

/// \brief A linked-brushing session over retained plan views sharing one
/// base relation.
class PlanCrossfilter {
 public:
  /// `relation` is the scan label (lineage endpoint) shared by all views.
  explicit PlanCrossfilter(std::string relation)
      : relation_(std::move(relation)) {}

  /// Executes `plan` and retains it as view `name`. The capture options
  /// must produce backward and forward lineage on the shared relation
  /// (CaptureOptions::Inject() default); AddView fails otherwise.
  Status AddView(std::string name, const LogicalPlan& plan,
                 const CaptureOptions& opts = CaptureOptions::Inject());

  size_t num_views() const { return views_.size(); }
  std::vector<std::string> ViewNames() const;
  Status ViewOutput(const std::string& name, const Table** out) const;

  /// One view's share of a brush result.
  using Linked = LinkedBrush;

  /// Brushes output row `out_rid` of `view` into every *other* view with
  /// one BrushLinkedPlans call: for each, the output rows reachable through
  /// the shared relation and their witness counts. For a group-by COUNT(*)
  /// view the counts are the brushed bar counts.
  Status Brush(const std::string& view, rid_t out_rid,
               std::map<std::string, Linked>* out) const;

 private:
  struct View {
    std::string name;
    PlanResult result;
  };
  const View* Find(const std::string& name) const;

  std::string relation_;
  std::vector<View> views_;  // insertion order
};

}  // namespace smoke

#endif  // SMOKE_APPS_PLAN_CROSSFILTER_H_
