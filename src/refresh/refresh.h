// Incremental capture & live refresh: retained plans become live views
// (paper Section 2.1, footnote 1: Smoke's query model includes refresh and
// forward propagation in addition to backward/forward lineage queries —
// here generalized from the single group-by kernel to whole retained plans).
//
// A plan executed with CaptureOptions::retain_refresh_state keeps, alongside
// its composed end-to-end indexes, the per-operator intermediate outputs and
// group-by hash handles (PlanRefreshState, plan/executor.h). When a base
// relation grows, the delta pass here re-runs capture over ONLY the appended
// rid range and extends everything in place:
//
//  - selects / projects / derives emit output fragments for the delta rows
//    and append them to the retained intermediate outputs;
//  - hash joins probe the delta against the build table the join kernel
//    built and retained (the build relation is static — a delta arriving on
//    the build side instead falls back to a scoped rebuild with an explicit
//    RefreshStats reason);
//  - a group-by at the plan root folds the delta into its retained γht
//    handle (GroupByDeltaAppend): new groups append output rows, updated
//    groups patch their finalized aggregates in place;
//  - the composed backward/forward indexes grow through the append builders
//    in lineage/fragment_merge.h, which dispatch over raw AND store-encoded
//    forms — so refresh works directly on kAdaptive-encoded retained
//    indexes, routing new posting lists through the PostingsBuilder encode
//    path.
//
// Because rid spaces are monotonic (appends only), every index maintenance
// operation is append-shaped and the refreshed result — output rows, group
// slots, and both lineage directions — is bit-identical to dropping the
// view and re-executing the plan from scratch (tests/refresh_property_test).
//
// Refreshability matrix (AnalyzeRefreshability):
//
//   node kind     | refreshable when
//   --------------+------------------------------------------------------
//   Scan          | always (append-only base relation)
//   Select        | always
//   Project       | always
//   Derive        | always
//   HashJoin      | build child is a DIRECT base-table scan and the delta
//                 | arrives via the probe subtree; materialized output
//                 | (the retained kernel build table is probed as is)
//   GroupBy       | only at the plan root
//   SetOp         | never
//   SpjaBlock     | never
//   Trace         | never
//
// plus plan-level requirements: Smoke-I (inject) capture, both directions,
// no relation pruning, no shared subplans, no duplicate scan labels, no
// pending deferred capture, lineage not evicted. Everything else reports a
// precise fallback_reason and is served by a full rebuild.
#ifndef SMOKE_REFRESH_REFRESH_H_
#define SMOKE_REFRESH_REFRESH_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/group_by.h"
#include "plan/executor.h"
#include "storage/table.h"

namespace smoke {

/// What one delta batch did to one retained view (per-batch observability;
/// the serving layer surfaces these through ServeCore::LastRefreshStats).
struct RefreshStats {
  std::string target;  ///< retained view / plan name (filled by callers)
  std::string table;   ///< base relation the delta landed on

  /// True when the view was maintained incrementally; false means the delta
  /// pass did not run (see fallback_reason) and the caller either rebuilt
  /// the view or left it refusing.
  bool incremental = false;
  std::string fallback_reason;  ///< why not, when !incremental

  size_t delta_rows = 0;     ///< appended base rows in this batch
  size_t rows_scanned = 0;   ///< rows the delta pass actually touched
  size_t groups_touched = 0; ///< group-by root: distinct groups updated
  size_t new_groups = 0;     ///< group-by root: groups created by the delta
  size_t output_rows_appended = 0;
  /// Lineage edges appended across all composed indexes, in rid_t bytes
  /// (logical volume — the store codec may pack them tighter).
  size_t index_bytes_appended = 0;
};

/// Per-plan scratch the refresh subsystem caches on PlanRefreshState
/// (forward-declared in plan/executor.h): the analyzed delta path and the
/// base-row watermarks. Join build tables are not copied here: each batch
/// probes the table the join kernel built (OperatorResult::join_build).
struct RefreshPlanCache {
  /// Operator node ids on the unique path delta-scan -> root, bottom-up.
  std::vector<int> path;
  /// The one scan whose table may receive incremental deltas (the leaf of
  /// the probe chain; every other scan feeds a join build side).
  int delta_scan = -1;
  /// Scan node id -> base rows already folded into the view. Compared
  /// against the live tables to detect deltas (and dim-side appends).
  std::map<int, size_t> scan_rows;
};

/// Analyzes a retained plan's refresh state against the matrix above,
/// filling refresh->analyzed / refreshable / fallback_reason and building
/// the RefreshPlanCache (delta path, base-row watermarks).
/// Idempotent; called automatically by the first RefreshPlanAppend and by
/// the engine/serving integration right after retention. Errors only on
/// misuse (no refresh state retained at all).
Status AnalyzeRefreshability(PlanResult* pr);

/// Runs the delta pass: detects which base relations grew since the last
/// sync (via the cached watermarks), re-runs capture over the appended rid
/// ranges, extends the intermediate outputs, the root output, and every
/// composed index in place, and fills `stats`.
///
/// Always returns OK unless misused; when the view cannot be maintained
/// (not refreshable, or the delta landed on a join build side), the view is
/// left UNTOUCHED, stats->incremental is false and stats->fallback_reason
/// says why — the caller decides between RebuildRetainedPlan and refusal.
Status RefreshPlanAppend(PlanResult* pr, RefreshStats* stats);

/// Scoped rebuild fallback: re-executes the retained (already optimized)
/// plan stashed in the refresh state against the current base tables,
/// replaces *pr, and re-analyzes. Lineage is left raw — callers owning a
/// store policy (SmokeEngine) re-encode afterwards.
Status RebuildRetainedPlan(PlanResult* pr);

/// Copies a finalized retained result for the serving layer: output and
/// cardinality are cloned and the composed lineage is encoded under
/// `codec` in one pass over the source indexes (kRaw: an exact-size raw
/// copy), with every borrowed Table* in `rebind` swapped for its
/// replacement (a snapshot's own table copies). Refresh/deferred state and
/// explain records are not cloned — the copy is an immutable published
/// artifact. Fails on results that still hold deferred capture, or SPJA
/// block artifacts that reference base tables or push-down indexes (those
/// views re-execute).
Status ClonePlanResultForServe(
    const PlanResult& src,
    const std::unordered_map<const Table*, const Table*>& rebind,
    LineageCodec codec, PlanResult* out);

/// \brief Standalone registry tying append-only base tables to retained
/// live views (the engine-free counterpart of SmokeEngine::AppendRows, used
/// by tests, benches and examples that execute plans directly).
///
/// Tables and views are borrowed and must outlive the manager. Registered
/// views are analyzed once; AppendBatch appends the rows, then maintains
/// every registered view — incrementally when the analysis and the delta
/// placement allow it, otherwise by scoped rebuild (RebuildRetainedPlan)
/// with the reason recorded in that batch's RefreshStats.
class RefreshManager {
 public:
  RefreshManager() = default;
  SMOKE_DISALLOW_COPY_AND_ASSIGN(RefreshManager);

  /// Registers an append-only base relation by name.
  Status RegisterTable(const std::string& name, Table* table);

  /// Registers a retained view (a PlanResult executed with
  /// retain_refresh_state) and analyzes its refreshability. Views that
  /// analyze as non-refreshable are still accepted — they are maintained by
  /// rebuild on every batch that touches their inputs.
  Status RegisterView(const std::string& name, PlanResult* view);

  /// Appends `rows` to the registered table and maintains every registered
  /// view. Per-view RefreshStats for this batch are appended to `stats`
  /// (when non-null) and retained for LastStats.
  Status AppendBatch(const std::string& table, const Table& rows,
                     std::vector<RefreshStats>* stats = nullptr);

  /// The stats of `view` from the most recent AppendBatch, or null.
  const RefreshStats* LastStats(const std::string& view) const;

 private:
  std::map<std::string, Table*> tables_;
  std::vector<std::pair<std::string, PlanResult*>> views_;  // registration order
  std::map<std::string, RefreshStats> last_;
};

// ---- single-kernel refresh ----

/// Incrementally maintains `result` after rows [first_new_rid, input rows)
/// were appended to `input`: GroupByDeltaAppend folds the rows into the
/// γht handle and output, then the backward index and forward array grow by
/// one edge per row. `changed` receives the output rids whose aggregates
/// changed (new groups too, in first-touch order). Fails, leaving `result`
/// untouched, without a handle or raw Inject-captured lineage, or when
/// `first_new_rid` is not the number of rows already folded. Both functions
/// here live in engine/group_by.cc, next to the kernel state that
/// ForwardPropagate re-initializes.
Status RefreshAppend(GroupByResult* result, const Table& input,
                     rid_t first_new_rid, std::vector<rid_t>* changed);

/// Recomputes the output groups affected by in-place updates to the given
/// input rows (group-by key columns must be unchanged — key changes require
/// re-running the query); `affected` receives their output rids. Fails,
/// leaving `result` untouched, on an updated rid outside the captured
/// input or a result without a handle or raw Inject-captured lineage.
Status ForwardPropagate(GroupByResult* result, const Table& input,
                        const std::vector<rid_t>& updated_rids,
                        std::vector<rid_t>* affected);

}  // namespace smoke

#endif  // SMOKE_REFRESH_REFRESH_H_
