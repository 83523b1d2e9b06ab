// Plan execution with end-to-end lineage composition (paper Figure 2: a
// base query runs through an instrumented plan; the plan emits lineage
// indexes connecting its output to every base relation).
#ifndef SMOKE_PLAN_EXECUTOR_H_
#define SMOKE_PLAN_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/capture.h"
#include "engine/spja.h"
#include "lineage/query_lineage.h"
#include "optimizer/explain.h"
#include "plan/operator.h"
#include "plan/plan.h"

namespace smoke {

/// Execution state retained when plan-level defer scheduling is on
/// (CaptureOptions::defer_plan_finalize with mode kDefer): the per-operator
/// results with their unconsumed lineage fragments, plus the group-by nodes
/// whose deferred capture still needs finalizing. Holding the intermediate
/// outputs keeps every deferred operator's input batch alive until
/// PlanResult::FinalizeDeferred() probes the retained hash tables.
struct PlanDeferredState {
  LogicalPlan plan;  ///< copy of the executed DAG (borrows base tables)
  CaptureOptions opts;
  std::vector<OperatorResult> results;
  std::vector<uint8_t> reachable;
  std::vector<int> pending_group_bys;  ///< node ids awaiting finalization
};

/// Per-plan cache the refresh subsystem (src/refresh/) attaches to retained
/// state: the analyzed delta path and base-row watermarks. Defined in
/// refresh/refresh.h — the plan layer only carries the pointer, keeping the
/// dependency one-directional.
struct RefreshPlanCache;

/// Execution state retained when CaptureOptions::retain_refresh_state is on:
/// everything the delta pass (src/refresh/) needs to run capture over only
/// an appended batch and extend the composed indexes in place — the
/// optimized plan actually executed, the capture options, and the
/// per-operator results (intermediate outputs kept alive, group-by hash
/// handles and join build tables retained; the root output and the lineage
/// fragments have been moved out into the PlanResult).
struct PlanRefreshState {
  LogicalPlan plan;  ///< the optimized DAG that ran (borrows base tables)
  CaptureOptions opts;
  std::vector<OperatorResult> results;
  std::vector<uint8_t> reachable;

  /// Filled by refresh::AnalyzeRefreshability after retention.
  bool analyzed = false;
  bool refreshable = false;
  std::string fallback_reason;  ///< why not, when !refreshable

  /// Opaque per-plan scratch owned by the refresh subsystem.
  std::shared_ptr<RefreshPlanCache> cache;
};

/// Result of executing a LogicalPlan: the root output plus one composed
/// end-to-end backward/forward index pair per reachable base-table scan
/// (in scan-creation order; for SpjaBlock plans that is fact first, then
/// dimensions in join order). Base tables are borrowed and must outlive the
/// result for lineage queries to dereference rows.
///
/// A plan result is-a SPJAResult: when the root is an SPJA block the
/// inherited SPJAArtifacts fields hold the block-level artifacts (the
/// push-down skip index and cube among them); otherwise they stay empty.
struct PlanResult : SPJAResult {
  /// EXPLAIN record of the optimizer run (empty when opts.optimize was off).
  PlanExplain explain;
  /// Tables this result's lineage borrows that are not owned by the caller
  /// (e.g. the reshaped cube lookup table a kCube lineage query scans).
  /// Kept alive with the result so retained results never dangle.
  std::vector<std::shared_ptr<Table>> owned_tables;
  /// Non-null while deferred capture awaits FinalizeDeferred(); `lineage`
  /// is empty until then.
  std::unique_ptr<PlanDeferredState> deferred;
  /// Non-null when the plan ran with CaptureOptions::retain_refresh_state:
  /// the state the delta pass extends on each appended batch.
  std::shared_ptr<PlanRefreshState> refresh;

  /// True while deferred group-by capture has not been finalized yet.
  bool HasDeferred() const { return deferred != nullptr; }

  /// True when this retained result can be maintained incrementally by
  /// RefreshManager/SmokeEngine::AppendRows (refresh state was retained and
  /// the analysis accepted the plan shape — see src/refresh/refresh.h for
  /// the refreshability matrix).
  bool refreshable() const {
    return refresh != nullptr && refresh->analyzed && refresh->refreshable;
  }

  /// The paper's think-time Zγ at plan granularity: finalizes every pending
  /// deferred group-by (re-probing the retained hash tables) and composes
  /// the end-to-end lineage indexes. No-op when nothing is pending.
  Status FinalizeDeferred();
};

/// Executes `plan` with the capture technique in `opts` and composes the
/// per-operator lineage fragments into `out->lineage`. The plan is
/// validated first — by the optimizer, or by schema inference alone when
/// opts.optimize is off — so a malformed plan returns a Status.
///
/// Supported modes for multi-operator plans: kNone, kInject, kDefer (defer
/// finalization is eager per operator by default; set
/// opts.defer_plan_finalize to postpone it to PlanResult::
/// FinalizeDeferred()). The logic/physical baseline modes are only accepted
/// when the plan is a single block over scans (the SPJAExec compatibility
/// path) — they produce annotated relations or external writes that do not
/// compose across operators.
///
/// Parallel capture: opts.num_threads > 1 executes the parallelizable
/// operators morsel-driven over a plan-wide worker pool; results and
/// composed lineage are bit-identical to num_threads == 1.
///
/// Workload pruning (Section 4.1): opts.capture_backward/forward apply to
/// every operator; opts.only_relations names base relations (scan labels) —
/// subtrees containing no traced relation run with capture disabled, and
/// multi-input operators capture only the sides leading to traced scans.
Status ExecutePlan(const LogicalPlan& plan, const CaptureOptions& opts,
                   PlanResult* out);

namespace internal {

/// ExecutePlan minus the entry work: runs `plan` as given, neither
/// rewritten nor re-validated. For callers that validated the plan once
/// and execute it many times (a compiled LineageQuery).
Status ExecuteValidatedPlan(const LogicalPlan& plan,
                            const CaptureOptions& opts, PlanResult* out);

}  // namespace internal

}  // namespace smoke

#endif  // SMOKE_PLAN_EXECUTOR_H_
