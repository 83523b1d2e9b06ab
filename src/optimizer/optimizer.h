// Rule-based LogicalPlan rewriter (ROADMAP "speed" tentpole; modeled on
// DuckDB's ExpressionRewriter: a small Rule interface driven to fixed
// point).
//
// The optimizer runs by default inside ExecutePlan and TraceBuilder::
// Compile (CaptureOptions::optimize / TraceBuilder::Optimize opt out).
// Every rewrite preserves results AND lineage bit-identically: rules only
// fire where the composed lineage fragments are provably unchanged — e.g.
// selects push through identity-fragment operators (project/derive), into
// both set-op children (value-class uniform predicates), and into Trace
// nodes (the fused filter composes the same select fragment the literal
// plan would); Trace∘Trace chains fuse into one node whose per-hop
// fragments run through the identical lineage/compose calls the executor
// would make, minus the intermediate endpoint materialization; and a
// GroupBy over a trace folds into the trace node, which aggregates the rid
// stream against the endpoint columns without materializing any row.
//
// Shipping rules:
//   fold_constants             constant folding over engine/expr ASTs
//   merge_selects              Select(Select(x)) -> Select(x)
//   push_select_through_project / _derive / _set_op
//   fuse_trace_hops            Trace∘Trace -> one Trace with fused hops
//   push_select_into_trace     Select(Trace(x)) -> Trace(x) with filters
//   fuse_trace_aggregate       GroupBy([Derive](Trace(x))) -> aggregating
//                              Trace(x)
//   elide_identity_project, merge_projects, elide_empty_select
#ifndef SMOKE_OPTIMIZER_OPTIMIZER_H_
#define SMOKE_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/explain.h"
#include "optimizer/schema_infer.h"
#include "plan/plan.h"

namespace smoke {

namespace optimizer {

/// \brief Mutable rewrite workspace. Node ids stay stable while rules
/// rewrite contents in place (push-down rules swap parent/child payloads;
/// fusion/elision rules overwrite the parent with derived content and
/// orphan the child). Rules may also append nodes (Insert) with a
/// fractional order key; Freeze() re-emits the reachable nodes in key
/// order, which preserves the relative order of the original nodes — scan
/// order is lineage-input order, so it must survive the rebuild.
struct WorkPlan {
  std::vector<PlanNode> nodes;
  std::vector<double> keys;  ///< topological order keys (child < parent)
  int root = -1;

  // Derived state, recomputed by Refresh() after every rule application.
  std::vector<Schema> schemas;
  std::vector<int> parents;  ///< reachable parent count
  std::vector<uint8_t> reachable;

  static Status FromPlan(const LogicalPlan& plan, WorkPlan* out);

  /// Recomputes reachability, parent counts, and schemas. Fails when the
  /// current plan shape is malformed (the schema-inference validation).
  Status Refresh();

  /// Appends a node ordered strictly between keys `lo` and `hi`.
  int Insert(PlanNode node, double lo, double hi);

  const PlanNode& node(int id) const {
    return nodes[static_cast<size_t>(id)];
  }
  const Schema& schema(int id) const {
    return schemas[static_cast<size_t>(id)];
  }
  /// True when `id` has exactly one reachable parent — content-copy
  /// rewrites on shared (DAG) children would duplicate subplans and change
  /// the lineage merge structure, so rules require this.
  bool SingleParent(int id) const {
    return parents[static_cast<size_t>(id)] == 1;
  }

  /// Rebuilds a validated LogicalPlan from the reachable nodes.
  Status Freeze(LogicalPlan* out) const;
};

/// One rewrite rule (match + apply in one step, DuckDB-rewriter style).
class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* name() const = 0;

  /// Attempts to rewrite at node `id` (reachable, schemas fresh). Returns
  /// true when the rewrite applied and fills `*detail`; the driver then
  /// Refresh()es and restarts the scan.
  virtual bool Apply(WorkPlan* wp, int id, std::string* detail) const = 0;
};

/// The shipping rule set, in application order.
std::vector<std::unique_ptr<Rule>> MakeRules();

}  // namespace optimizer

/// Rewrites `plan` to fixed point and records what happened in `*explain`
/// (pass nullptr to skip the record). The input plan is untouched; `*out`
/// is rebuilt through PlanBuilder and re-validated. Optimized plans
/// produce bit-identical results and lineage to the input plan.
Status OptimizePlan(const LogicalPlan& plan, LogicalPlan* out,
                    PlanExplain* explain);

}  // namespace smoke

#endif  // SMOKE_OPTIMIZER_OPTIMIZER_H_
