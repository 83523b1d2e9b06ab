// SmokeEngine: the system-level facade (paper Figure 2).
//
// Ties the pieces together the way the paper's engine does: a client
// registers base relations, submits base queries Q (optionally with a
// declared lineage-consuming workload W that configures pruning and
// push-down), and then issues backward / forward / consuming lineage
// queries against the retained lineage indexes. Base queries are operator
// DAGs built with PlanBuilder (ExecutePlan); an SPJA query (ExecuteQuery) is
// just the canonical plan with one SpjaBlock node, so every retained result
// is a PlanResult. Results and their lineage are retained under
// client-chosen names so consuming queries can chain (C over C' over Q) and
// lineage can be traced across queries.
//
// Lineage consumption goes through the unified API (query/trace_builder.h):
// traces and consuming queries compile to ordinary plans with Trace nodes,
// run by the same executor as base queries, and retain PlanResults — so a
// consuming result chains exactly like any other retained query. The typed
// handles (TraceResult / ExecuteTraceQuery) are the interface.
#ifndef SMOKE_CORE_SMOKE_ENGINE_H_
#define SMOKE_CORE_SMOKE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/spja.h"
#include "lineage/store/lineage_store.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "query/trace_builder.h"
#include "refresh/refresh.h"
#include "shard/sharded_table.h"
#include "storage/catalog.h"

namespace smoke {

/// \brief Typed result of a lineage trace: the traced rids, the
/// materialized endpoint rows, and the executed trace plan whose own
/// composed lineage makes the result chainable (trace the trace, stack a
/// consuming query on top, brush across views).
struct TraceResult {
  std::vector<rid_t> rids;  ///< traced rids, in trace order
  Table rows;               ///< SELECT * FROM L(...): the endpoint rows
  PlanResult plan;          ///< the trace as an executed plan (chainable)

  TraceSource AsSource(std::string name = "trace") const {
    return TraceSource::FromPlan(plan, std::move(name));
  }
};

/// The declared lineage-consuming workload W for a base query (paper
/// Section 4): which relations/directions future lineage queries touch
/// (instrumentation pruning) and which push-downs to apply.
struct Workload {
  /// Relations future lineage queries trace to (empty = all).
  std::vector<std::string> traced_relations;
  bool needs_backward = true;
  bool needs_forward = true;
  /// Push-down configuration (selection / data skipping / cube). Applies to
  /// SPJA base queries (ExecuteQuery attaches it to the block); plan base
  /// queries attach push-downs to their SpjaBlock nodes instead.
  SPJAPushdown pushdown;
};

/// \brief In-memory lineage-enabled database engine.
class SmokeEngine {
 public:
  SmokeEngine() = default;
  SMOKE_DISALLOW_COPY_AND_ASSIGN(SmokeEngine);

  // ---- data definition ----

  /// Registers a base relation. Fails with AlreadyExists if the name is
  /// taken — re-registering under a live name would dangle the borrowed
  /// table pointers inside retained queries (use ReplaceTable / DropTable,
  /// which check for that).
  Status CreateTable(const std::string& name, Table table);

  /// Looks up a base relation.
  Status GetTable(const std::string& name, const Table** out) const;

  /// Swaps in new contents for a registered relation. Refused while any
  /// retained query still references the table: retained lineage stores
  /// rids into the old rows, so replacing them underneath would silently
  /// corrupt every subsequent lineage query. The refusal names the
  /// borrowing result; drop the dependents first — or, to replace data
  /// underneath live readers without dropping anything, serve through
  /// ServeCore, which versions the whole engine instead of mutating it.
  Status ReplaceTable(const std::string& name, Table table);

  /// Unregisters a relation. Refused while any retained query references
  /// the table (same hazard as ReplaceTable). Dropping a sharded table
  /// drops its shard slices and codec with it.
  Status DropTable(const std::string& name);

  /// Partitions a registered base table into shards (range/hash on an int64
  /// column, shard/shard_map.h). Subsequent ExecutePlan calls whose plans
  /// scan the table route through the sharded coordinator
  /// (shard/coordinator.h): per-shard morsel-parallel execution and
  /// cross-shard lineage composition bit-identical to the unsharded run.
  /// A sharded result retains only its output and composed lineage, which
  /// speak the base table's rids, so re-sharding with a new spec is allowed
  /// while results are retained. ReplaceTable re-slices a sharded table
  /// under the same spec.
  Status ShardTable(const std::string& name, const ShardingSpec& spec);

  /// Removes a table's sharding (slices and codec). The base relation and
  /// every retained result stay, sharded results included; subsequent plans
  /// execute unsharded.
  Status UnshardTable(const std::string& name);

  /// Appends `rows` to a registered relation and incrementally maintains
  /// every retained plan that reads it (src/refresh/): refreshable views
  /// fold the delta through their operator DAGs in place; views whose
  /// analysis or delta placement forbids it (dim-side join append, SetOp,
  /// mid-plan group-by, ...) take a scoped rebuild with the reason recorded
  /// in their RefreshStats. Appending — unlike ReplaceTable — never
  /// invalidates retained rids, so this is the one mutation allowed while
  /// results are live. Refused (FailedPrecondition, naming the borrower)
  /// when a borrowing result cannot be maintained at all: a plan with
  /// pending deferred capture, or one that carries no refresh state
  /// (executed without retain_refresh_state, or sharded). Per-view stats
  /// for this batch are appended to `stats` when non-null.
  Status AppendRows(const std::string& name, const Table& rows,
                    std::vector<RefreshStats>* stats = nullptr);

  /// Adopts an externally maintained PlanResult as a retained plan (used by
  /// ServeCore to publish incrementally refreshed views into a fresh
  /// snapshot engine without re-executing them). The result must be
  /// finalized; its lineage is registered with the store accounting as-is
  /// (already encoded per `codec` by the maintainer).
  Status AdoptRetainedPlan(const std::string& query_name, PlanResult result,
                           LineageCodec codec);

  // ---- base queries ----

  /// Executes an SPJA base query with the given capture technique and
  /// retains its result and lineage under `query_name`. The query runs as
  /// the single-SpjaBlock plan (PlanBuilder::SpjaBlock with the workload's
  /// push-downs) through ExecutePlan, so it is sharded, refreshed and
  /// budget-evicted like any plan. The optional workload drives pruning and
  /// push-down configuration. A malformed query returns the plan
  /// validation error.
  Status ExecuteQuery(const std::string& query_name, const SPJAQuery& query,
                      CaptureMode mode = CaptureMode::kInject,
                      const Workload* workload = nullptr);

  /// Full-options variant: `opts` additionally carries the parallel-capture
  /// knobs and the lineage codec (how the retained indexes are encoded at
  /// finalize; the memory budget is SetLineageBudget's). Results and traces
  /// are bit-identical across codecs.
  Status ExecuteQuery(const std::string& query_name, const SPJAQuery& query,
                      const CaptureOptions& opts,
                      const Workload* workload = nullptr);

  /// Executes a composable operator DAG (plan/plan.h) and retains its
  /// result and composed end-to-end lineage under `query_name`. All lineage
  /// queries (TraceBackward / TraceForward / TraceBuilder) and consuming
  /// queries work over every retained plan. The workload's
  /// traced_relations / directions configure pruning; a non-empty pushdown
  /// field is refused (attach push-downs to SpjaBlock nodes when building
  /// the plan).
  Status ExecutePlan(const std::string& query_name, const LogicalPlan& plan,
                     CaptureMode mode = CaptureMode::kInject,
                     const Workload* workload = nullptr);

  /// Full-options variant: `opts` additionally carries the parallel-capture
  /// knobs (num_threads, morsel_rows — results and lineage are identical to
  /// single-threaded execution) and defer_plan_finalize (think-time
  /// finalization via FinalizePlan). A non-null workload overrides the
  /// pruning fields of `opts` as in the CaptureMode variant.
  Status ExecutePlan(const std::string& query_name, const LogicalPlan& plan,
                     const CaptureOptions& opts,
                     const Workload* workload = nullptr);

  /// Finalizes deferred capture of a retained plan executed with
  /// defer_plan_finalize (the paper's think-time Zγ at plan granularity).
  /// Lineage queries against the plan only see indexes after this runs.
  /// No-op for plans with nothing pending.
  Status FinalizePlan(const std::string& query_name);

  /// The output relation of a retained query.
  Status GetResult(const std::string& query_name, const Table** out) const;

  /// The retained result as an SPJA result object: output, lineage and —
  /// when the plan root is an SPJA block — the block artifacts (push-down
  /// index / cube). Points into the retained PlanResult; nothing is copied.
  Status GetResultObject(const std::string& query_name,
                         const SPJAResult** out) const;

  /// The full plan result object (composed lineage, block artifacts).
  Status GetPlanResult(const std::string& query_name,
                       const PlanResult** out) const;

  // ---- lineage queries: typed handles (the unified consumption API) ----

  /// Builds a TraceSource for a retained query so callers can construct
  /// TraceBuilder queries directly. The source borrows the retained result
  /// and stays valid until the query is dropped.
  Status MakeTraceSource(const std::string& query_name,
                         TraceSource* out) const;

  /// Lb(out_rids ⊆ O, relation) as an executed Trace plan: rids, rows and
  /// chainable lineage in one typed handle.
  Status TraceBackward(const std::string& query_name,
                       const std::string& relation,
                       const std::vector<rid_t>& out_rids, TraceResult* out,
                       bool dedup = true) const;

  /// Lf(in_rids ⊆ relation, O) as an executed Trace plan.
  Status TraceForward(const std::string& query_name,
                      const std::string& relation,
                      const std::vector<rid_t>& in_rids,
                      TraceResult* out) const;

  /// Executes a TraceBuilder lineage/consuming query and retains its
  /// PlanResult under `result_name` — the result chains like any retained
  /// plan (Backward / TraceBackward / further consuming queries all work).
  Status ExecuteTraceQuery(const std::string& result_name,
                           const TraceBuilder& builder,
                           const CaptureOptions& opts = CaptureOptions::Inject());

  /// Lb(out_rids ⊆ O, relation): input rids of `relation` that contributed
  /// to the given outputs of `query_name`.
  /// Kept for perfbench's tpch_capture check; other callers use TraceBackward.
  Status Backward(const std::string& query_name, const std::string& relation,
                  const std::vector<rid_t>& out_rids,
                  std::vector<rid_t>* rids, bool dedup = true) const;

  /// Drops a retained query result and its lineage (releasing its lineage
  /// store accounting). Refused while another retained result's lineage
  /// still borrows this result's output rows (e.g. a retained forward
  /// trace) — dropping it would dangle that lineage.
  Status DropResult(const std::string& query_name);

  std::vector<std::string> QueryNames() const;

  // ---- lineage store: memory accounting & budget ----

  /// Per-retained-query lineage memory accounting: bytes, codec, eviction
  /// state, LRU ticks, and the engine-wide total/budget.
  LineageStoreStats LineageMemoryStats() const;

  /// Sets the engine-wide lineage memory budget (0 = unlimited) and
  /// enforces it immediately: coldest retained indexes are re-encoded
  /// adaptively, then evicted (lazy-rescan fallback) until under budget.
  void SetLineageBudget(size_t bytes);

 private:
  struct RetainedPlan {
    PlanResult result;
    LineageCodec codec = LineageCodec::kRaw;
  };

  /// The retained result named `query_name`, or NotFound.
  Status Lookup(const std::string& query_name,
                const RetainedPlan** out) const;

  /// Name of a retained result whose lineage or SPJA block query still
  /// borrows `table` (first in name order), or "" when none — lets the
  /// refusal paths tell the caller exactly what to drop. The serving layer
  /// (serve/serve_core.h) sidesteps these refusals entirely by giving each
  /// snapshot version its own engine.
  std::string BorrowerOf(const Table* table) const;

  /// TraceSource over a resolved retained result, carrying its store
  /// statistics; bumps its LRU tick.
  TraceSource SourceOf(const std::string& query_name,
                       const RetainedPlan& rp) const;

  /// Retains a freshly executed result: encodes its lineage per
  /// `opts.lineage_codec`, registers it with the tracker, and enforces the
  /// budget.
  void Retain(const std::string& query_name,
              std::unique_ptr<RetainedPlan> retained,
              const CaptureOptions& opts);

  /// Re-encode cold, then evict, until total lineage bytes fit the budget.
  /// Eviction drops a result's indexes (keeping output and metadata) and is
  /// limited to results whose traces fall back to the lazy rescan.
  void EnforceBudget();

  Catalog catalog_;
  /// Shard slices + codec per sharded base table, keyed by table name.
  std::map<std::string, std::unique_ptr<ShardedTable>> sharded_;
  /// Retained results: SPJA queries, plans AND trace/consuming results —
  /// all of them are plans, so they are the same kind of thing.
  std::map<std::string, std::unique_ptr<RetainedPlan>> plans_;
  /// Lineage store accounting (mutable: trace accesses bump LRU ticks
  /// through const lookups).
  mutable LineageMemoryTracker tracker_;
};

}  // namespace smoke

#endif  // SMOKE_CORE_SMOKE_ENGINE_H_
