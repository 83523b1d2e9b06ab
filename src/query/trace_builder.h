// The unified lineage-consumption API (paper Sections 2.1, 4, 6.4): lineage
// queries *are* relational queries, so this layer compiles a trace plus
// optional filters / group-by / aggregates into an ordinary LogicalPlan —
// Trace → Select → Derive → GroupBy — executed by the plan executor. The
// compiled consuming query therefore gets everything plans get: morsel
// parallelism, deterministic fragment merging, and its own composed
// end-to-end lineage back to the base relation (which is what lets drill-
// down chains like TPC-H Q1a → Q1b → Q1c stack without special cases).
// The optimizer folds that chain into one aggregating Trace node
// (fuse_trace_aggregate), so a drill-down reads the rid stream against
// the relation's columns and never copies a traced row — the paper's
// consuming query as a secondary index scan.
//
// The paper's evaluation strategies (Figures 10–11) are a *physical* choice
// resolved at plan-compile time against the retained query's capture
// artifacts:
//  - kIndexed:  Trace node probing the captured backward/forward index
//               (secondary index scan);
//  - kLazy:     no trace at all — a full selection scan of the relation
//               with the lazily rewritten backward predicates;
//  - kSkipping: Trace node scanning only the rid partition whose code
//               matches the query's equality predicates on the partition
//               attributes (data-skipping push-down);
//  - kCube:     no scan at all — the materialized sub-aggregates of the
//               group-by push-down, reshaped to the consuming schema
//               (fact relation only; the cube columns in order, as raw or
//               scale100 keys, since the cells are never re-aggregated).
// kAuto picks kSkipping when the artifacts and predicates line up, and
// kIndexed otherwise (kLazy / kCube are opt-in: the former is the paper's
// baseline, the latter trades chainable fine-grained lineage for lookups).
#ifndef SMOKE_QUERY_TRACE_BUILDER_H_
#define SMOKE_QUERY_TRACE_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/explain.h"
#include "plan/executor.h"
#include "plan/plan.h"

namespace smoke {

/// A lineage consuming query (paper §2.1, §6.4, Appendix C): extra filters,
/// extra (derived) grouping keys and aggregates, all over the traced rows —
/// e.g. the TPC-H Q1a/Q1b/Q1c drill-downs. TraceBuilder::Consuming adds one
/// to a trace in bulk.
struct ConsumingSpec {
  std::vector<Predicate> filters;
  std::vector<GroupExpr> group_by;
  std::vector<AggSpec> aggs;
};

/// \brief Store-level statistics about a trace source's retained lineage
/// (LineageStoreStats, filled by SmokeEngine::MakeTraceSource from the
/// memory tracker). Feeds the cost model's strategy notes; `valid` is false
/// for sources built outside the engine.
struct TraceSourceStats {
  bool valid = false;
  size_t store_bytes = 0;
  LineageCodec codec = LineageCodec::kRaw;
  bool evicted = false;
};

/// \brief What a trace needs to know about the (retained) query it traces:
/// the captured lineage, the output relation, and — for the lazy/skipping/
/// cube physical choices — the original SPJA query and its capture
/// artifacts. All pointers are borrowed and must outlive compiled plans.
struct TraceSource {
  const QueryLineage* lineage = nullptr;
  const Table* output = nullptr;
  std::string name;                      ///< diagnostics / scan labels
  const SPJAQuery* query = nullptr;      ///< enables kLazy
  const SPJAResult* artifacts = nullptr; ///< enables kSkipping / kCube
  TraceSourceStats stats;                ///< cost-model store statistics

  /// Any executed result: a PlanResult, or an SPJAResult from SPJAExec.
  /// The block query (enabling kLazy) is taken from `result.query` when the
  /// result kept one.
  static TraceSource FromPlan(const SPJAResult& result,
                              std::string name = "plan") {
    TraceSource s;
    s.lineage = &result.lineage;
    s.output = &result.output;
    s.name = std::move(name);
    if (result.query.fact != nullptr) s.query = &result.query;
    s.artifacts = &result;
    return s;
  }
};

/// Physical evaluation strategy of a compiled lineage query.
enum class TraceStrategy : uint8_t { kAuto, kIndexed, kLazy, kSkipping, kCube };

const char* TraceStrategyName(TraceStrategy s);

/// Splits a trace plan's output into the traced rids (the trailing
/// kTraceRidColumn) and the endpoint rows without that column. Fails when
/// `output` carries no rid column (i.e. it is not a trace plan output).
/// Shared by the typed engine handles and PlanCrossfilter.
Status SplitTraceRows(const Table& output, std::vector<rid_t>* rids,
                      Table* rows);

/// \brief A compiled lineage-consuming query: an ordinary LogicalPlan (plus
/// any materialization it borrows, e.g. the cube lookup table) ready for the
/// plan executor. Copyable; copies share the owned materializations.
class LineageQuery {
 public:
  LineageQuery() = default;

  const LogicalPlan& plan() const { return plan_; }
  /// The physical strategy the compile resolved to (never kAuto).
  TraceStrategy strategy() const { return strategy_; }
  /// EXPLAIN record: applied rewrite rules, the resolved strategy, and the
  /// cost-model candidate summary that justified it.
  const PlanExplain& explain() const { return explain_; }

  /// Executes the compiled plan. `opts.mode` decides whether the consuming
  /// query captures its own lineage (kInject) or not (kNone); parallel
  /// knobs apply as for any plan.
  Status Execute(const CaptureOptions& opts, PlanResult* out) const;

 private:
  friend class TraceBuilder;
  LogicalPlan plan_;
  TraceStrategy strategy_ = TraceStrategy::kIndexed;
  PlanExplain explain_;
  /// kCube: the reshaped sub-aggregate table the plan scans.
  std::shared_ptr<Table> owned_table_;
};

/// \brief Fluent construction of lineage queries and lineage-consuming
/// queries over retained results.
///
///   auto q = TraceBuilder::Backward(src, "lineitem", {oid})
///                .Filter(Predicate::Str(kLShipmode, CmpOp::kEq, "MAIL"))
///                .GroupBy(GroupExpr::Year(kLShipdate))
///                .Agg(AggSpec::Count("cnt"));
///   PlanResult r;
///   q.Execute(CaptureOptions::Inject(), &r);   // r has its own lineage
///
/// Multi-hop linked brushing (Trace∘Trace):
///
///   TraceBuilder::Backward(view1, "sales", {bar}).ThenForward(view2)
///
/// Backward traces keep duplicate rids by default (witness alignment, like
/// BackwardRidsChecked without dedup); forward and multi-hop traces
/// deduplicate.
class TraceBuilder {
 public:
  /// Lb(out_rids ⊆ O, relation) over `src`.
  static TraceBuilder Backward(TraceSource src, std::string relation,
                               std::vector<rid_t> out_rids);

  /// Lf(in_rids ⊆ relation, O) over `src`.
  static TraceBuilder Forward(TraceSource src, std::string relation,
                              std::vector<rid_t> in_rids);

  /// Chains a forward hop into `next` over the same relation: the traced
  /// rids of the previous hop become the forward seeds (linked brushing).
  /// Both hops deduplicate. Requires a backward first hop.
  TraceBuilder& ThenForward(TraceSource next);

  /// Consuming-query clauses over the traced rows (the trace endpoint's
  /// schema: the relation for backward traces, the source query's output
  /// for forward traces).
  TraceBuilder& Filter(Predicate p);
  TraceBuilder& GroupBy(GroupExpr g);
  TraceBuilder& Agg(AggSpec a);
  /// Bulk form of Filter/GroupBy/Agg.
  TraceBuilder& Consuming(const ConsumingSpec& spec);

  /// Requests a physical strategy (default kAuto). Non-indexed strategies
  /// require a single seed and the matching source artifacts; Compile fails
  /// otherwise rather than silently falling back.
  TraceBuilder& Strategy(TraceStrategy s);

  /// Overrides rid deduplication of the (first) trace hop.
  TraceBuilder& Dedup(bool dedup);

  /// Toggles the plan rewriter on the compiled plan (default on). The
  /// resolved strategy is cost-based either way; this gates only the
  /// rule-based rewrites (fusion, push-down, elision) — the `--no-optimize`
  /// ablation path. The plan is validated either way.
  TraceBuilder& Optimize(bool on);

  /// Resolves the strategy against the source's capture artifacts and
  /// compiles the trace + clauses into a LogicalPlan.
  Status Compile(LineageQuery* out) const;

  /// Compile + Execute in one step.
  Status Execute(const CaptureOptions& opts, PlanResult* out) const;

 private:
  TraceBuilder() = default;

  Status ResolveStrategy(TraceStrategy* out, uint32_t* skip_code,
                         std::string* detail) const;
  Status CompileCube(LineageQuery* out) const;

  TraceSource src_;
  std::string relation_;
  TraceDirection dir_ = TraceDirection::kBackward;
  std::vector<rid_t> seeds_;
  std::vector<TraceSource> hops_;
  std::vector<Predicate> filters_;
  std::vector<GroupExpr> groups_;
  std::vector<AggSpec> aggs_;
  TraceStrategy strategy_ = TraceStrategy::kAuto;
  bool dedup_ = false;
  bool optimize_ = true;
};

}  // namespace smoke

#endif  // SMOKE_QUERY_TRACE_BUILDER_H_
