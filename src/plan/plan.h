// Composable lineage-instrumented plans (paper Sections 3.3, Figure 2).
//
// A LogicalPlan is a DAG of relational operator nodes over base-table scans.
// Every physical operator implements the uniform capture contract
// (plan/operator.h): it consumes its input batch(es) together with
// CaptureOptions and emits its output plus one lineage fragment per input.
// The executor (plan/executor.h) runs the DAG and stitches adjacent
// fragments (lineage/compose.h) into end-to-end backward/forward indexes per
// base relation — exactly how the paper composes instrumented operators into
// instrumented plans.
//
// Plans are built bottom-up with PlanBuilder; node ids are handed back so
// subplans compose freely (aggregate-over-aggregate rollups, joins of
// aggregated subplans, select-over-aggregate chains — shapes the monolithic
// SPJA block cannot express). The fused SPJA block itself remains available
// as a single multi-input node (SpjaBlock), which is how the legacy
// SPJAExec entry point is now expressed.
#ifndef SMOKE_PLAN_PLAN_H_
#define SMOKE_PLAN_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/expr.h"
#include "engine/group_by.h"
#include "engine/group_expr.h"
#include "engine/hash_join.h"
#include "engine/spja.h"
#include "storage/table.h"

namespace smoke {

enum class PlanOpKind : uint8_t {
  kScan,       ///< leaf: a borrowed base relation
  kSelect,     ///< predicate filter (pipelined; rid-array lineage)
  kProject,    ///< column projection (pure pipeline; identity lineage)
  kHashJoin,   ///< hash equi-join (children: build side, probe side)
  kGroupBy,    ///< hash aggregation
  kSetOp,      ///< set/bag union, intersection, difference
  kSpjaBlock,  ///< the fused SPJA block kernel as one multi-input operator
  kTrace,      ///< lineage query over a retained result (paper §2.1/§6.3:
               ///< a secondary index scan, expressed as a plan operator)
  kDerive,     ///< appends derived int64 grouping keys (year/month/scale)
};

enum class SetOpKind : uint8_t {
  kSetUnion,
  kBagUnion,
  kSetIntersect,
  kBagIntersect,
  kSetDifference,
};

const char* PlanOpKindName(PlanOpKind k);

enum class TraceDirection : uint8_t { kBackward, kForward };

/// Name of the int64 rid column a Trace node appends after the endpoint's
/// columns: the traced rid of each output row. Chained Trace nodes read
/// their seeds from it, and the typed facade handles surface it as
/// TraceResult::rids.
extern const char kTraceRidColumn[];

/// Index of the kTraceRidColumn of a trace output, or -1.
int TraceRidColumnOf(const Table& t);

/// The output schema of a non-aggregating trace over `endpoint`: its
/// columns, then kTraceRidColumn. An endpoint that is itself a trace result
/// keeps its own rid column renamed to "__trace_rid_<k>" (k the first free
/// suffix), so the output has exactly one column named kTraceRidColumn.
Schema TraceOutputSchema(const Schema& endpoint);

/// \brief One drill-down hop folded into a Trace node by the optimizer's
/// trace-hop fusion rule (Trace∘Trace collapsed into one node). Hops apply
/// in order after the node's own trace: the previous hop's traced rids seed
/// this hop's index probe, and the per-hop fragments compose through
/// lineage/compose — bit-identical to executing the literal chain, minus
/// the intermediate endpoint materialization.
struct TraceHopSpec {
  const QueryLineage* lineage = nullptr;  ///< borrowed, like TraceSpec
  std::string relation;
  TraceDirection direction = TraceDirection::kForward;
  const Table* endpoint = nullptr;  ///< rows this hop would materialize
  bool dedup = true;
};

/// \brief Payload of a kTrace node: a backward/forward lineage query over a
/// retained query's captured indexes, re-expressed as a relational operator
/// (the paper's claim that lineage queries *are* relational queries).
///
/// The node's single child is the trace's lineage endpoint scan (the traced
/// base relation for backward, the retained query's output for forward) —
/// or, for multi-hop traces (Trace∘Trace), another Trace node
/// whose emitted rid column seeds this hop. Output: the endpoint rows of
/// the traced rids (secondary index scan) plus the kTraceRidColumn. The
/// lineage fragment maps output rows to the child, so plans stacked on top
/// of a Trace (consuming queries) compose end-to-end lineage back to the
/// base relation for free.
struct TraceSpec {
  /// Borrowed lineage of the traced (retained) query; must outlive plan
  /// execution.
  const QueryLineage* lineage = nullptr;
  /// The lineage input to trace on (QueryLineage::FindInput name).
  std::string relation;
  TraceDirection direction = TraceDirection::kBackward;
  /// Seed rids: output rids of the traced query (backward) or input rids of
  /// `relation` (forward). Ignored when seeds_from_child is set.
  std::vector<rid_t> seeds;
  /// Multi-hop trace: seed from the child Trace node's kTraceRidColumn
  /// instead of `seeds`.
  bool seeds_from_child = false;
  /// Deduplicate traced rids (first-encounter order). Backward consuming
  /// queries keep duplicates for witness alignment; multi-hop traces dedup.
  bool dedup = true;
  /// Rows materialized into the output. Defaults to the child's table;
  /// chained hops must set it (the hop's own endpoint differs from the
  /// child's output).
  const Table* endpoint = nullptr;
  /// Data-skipping physical choice (paper §4.2): scan only partition
  /// `skip_code` of each seed in this partitioned backward index instead of
  /// probing the plain index. Backward, non-chained traces only.
  const PartitionedRidIndex* skip_index = nullptr;
  uint32_t skip_code = 0;
  /// Fused drill-down hops (optimizer trace-hop fusion). Applied in order
  /// after this node's own trace; the last hop's endpoint becomes the
  /// node's materialized output.
  std::vector<TraceHopSpec> fused_hops;
  /// Filters over the final endpoint's columns, pushed into the trace by
  /// the optimizer (predicate push-down into kTrace): evaluated per traced
  /// rid *before* materialization, so dropped rows are never copied.
  std::vector<Predicate> filters;
  /// Fused aggregate (optimizer fuse_trace_aggregate): GroupBy over this
  /// trace folded into the node. The filtered rid stream is grouped by
  /// `group_keys` (int64 keys over the final endpoint's columns) and
  /// `aggs` fold per group, straight against the endpoint columns — no
  /// endpoint row is copied. Output: one int64 column per key (named by
  /// the expression), then the aggregates, groups in first-encounter
  /// order; the lineage fragment is the composed Trace → GroupBy one.
  bool aggregate = false;
  std::vector<GroupExpr> group_keys;
  std::vector<AggSpec> aggs;
};

/// One node of the plan DAG. Exactly the payload fields for its kind are
/// meaningful; the rest stay default-constructed.
struct PlanNode {
  PlanOpKind kind = PlanOpKind::kScan;
  std::vector<int> children;
  /// Scan: the base relation name (the lineage endpoint). Other nodes: a
  /// label used for diagnostics and workload-pruning bookkeeping.
  std::string label;

  const Table* table = nullptr;         // kScan
  std::vector<Predicate> predicates;    // kSelect
  std::vector<int> columns;             // kProject
  /// kProject: name-based column references, resolved against the child's
  /// output schema at Build() time and appended to `columns` in order (then
  /// cleared). Other name fields live inside their specs (Predicate,
  /// JoinSpec, GroupBySpec, GroupExpr).
  std::vector<std::string> column_names;
  JoinSpec join;                        // kHashJoin
  GroupBySpec group_by;                 // kGroupBy
  SetOpKind set_op = SetOpKind::kSetUnion;  // kSetOp
  std::vector<int> set_cols;                // kSetOp (ignored for bag union)
  /// kSetOp: name-based forms of `set_cols`, resolved against the *left*
  /// child's schema (set-op columns are positional across both children).
  std::vector<std::string> set_col_names;
  SPJAQuery spja;                       // kSpjaBlock (table pointers are
                                        // rebound from the scan children)
  SPJAPushdown pushdown;                // kSpjaBlock only
  TraceSpec trace;                      // kTrace
  std::vector<GroupExpr> derives;       // kDerive
};

/// \brief A validated operator DAG. Nodes are topologically ordered by id
/// (every child id is smaller than its parent's), with a single root.
class LogicalPlan {
 public:
  LogicalPlan() = default;

  size_t num_nodes() const { return nodes_.size(); }
  const PlanNode& node(int id) const {
    SMOKE_DCHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return nodes_[static_cast<size_t>(id)];
  }
  int root() const { return root_; }

  /// Indented rendering of the DAG for debugging and examples.
  std::string ToString() const;

 private:
  friend class PlanBuilder;
  std::vector<PlanNode> nodes_;
  int root_ = -1;
};

/// \brief Bottom-up plan construction. Each method appends a node and
/// returns its id for use as a later child. Build() validates and freezes
/// the DAG. A node may be consumed by multiple parents (shared subplans);
/// the executor merges lineage across the resulting paths.
class PlanBuilder {
 public:
  PlanBuilder() = default;

  /// Leaf scan of a borrowed base relation. `name` is the relation name used
  /// as the lineage endpoint — give distinct names to distinct scans (two
  /// scans sharing a name make QueryLineage::FindInput ambiguous).
  int Scan(const Table* table, std::string name);

  /// SELECT * FROM child WHERE preds.
  int Select(int child, std::vector<Predicate> predicates);

  /// Projection onto `columns` (indexes into the child's output schema).
  int Project(int child, std::vector<int> columns);

  /// Projection by column name (resolved against the child's output schema
  /// at Build() time; unknown names fail Build with a clear Status).
  int Project(int child, std::vector<std::string> columns);

  /// build ⋈ probe. The left child is the build side (A in the paper's
  /// ⋈ht/⋈probe decomposition), the right child the probe side.
  int HashJoin(int build, int probe, JoinSpec spec);

  int GroupBy(int child, GroupBySpec spec);

  /// Binary set/bag operator over `cols` (same positions in both children;
  /// ignored for bag union). Set difference captures lineage for the left
  /// child only (paper Appendix F.5).
  int SetOp(SetOpKind kind, int left, int right, std::vector<int> cols);

  /// Set/bag operator with name-based columns (resolved against the left
  /// child's schema; positions apply to both children as in the int form).
  int SetOp(SetOpKind kind, int left, int right,
            std::vector<std::string> cols);

  /// The fused SPJA block as a single node. Scan children for the fact and
  /// dimension tables are added automatically from `query`. The block is
  /// the one host of capture push-downs; a group-by over one table that
  /// wants them is a block with no dimensions.
  int SpjaBlock(SPJAQuery query, SPJAPushdown pushdown = SPJAPushdown{});

  /// Lineage query as a plan node. `child` is the trace's endpoint scan, or
  /// a previous Trace node when `spec.seeds_from_child` chains hops
  /// (Trace∘Trace). Most callers should build traces through
  /// TraceBuilder (query/trace_builder.h) rather than by hand.
  int Trace(int child, TraceSpec spec);

  /// Appends one derived int64 grouping-key column per expression to the
  /// child's output (pure pipeline; identity lineage). The derived columns
  /// land after the child's columns, in `exprs` order, named by each
  /// expression.
  int Derive(int child, std::vector<GroupExpr> exprs);

  /// Appends a fully-formed node (the optimizer's plan-rebuild path). The
  /// node's children must already be valid builder ids; Build() validates
  /// as usual. Returns the node id.
  int AddNode(PlanNode node) { return Add(std::move(node)); }

  /// Overrides the auto-generated label of `node`.
  void SetLabel(int node, std::string label);

  /// Validates the DAG rooted at `root` and moves it into `*out`. The
  /// builder is left empty on success.
  ///
  /// Name resolution runs first: every name-based column reference —
  /// Select/Trace predicate `col_name`s, Project `column_names`, join key
  /// names, GroupBy `key_names` and aggregate-expression column names,
  /// SetOp `set_col_names`, Derive `col_name`s — is resolved against the
  /// referencing node's input schema (optimizer/schema_infer.h) and
  /// rewritten to the index form, clearing the name. Unknown names fail
  /// with a Status naming the node, the column, and the schema searched.
  /// Trace filters resolve against the trace's final endpoint schema.
  Status Build(int root, LogicalPlan* out);

 private:
  int Add(PlanNode node);

  /// The Build() name-resolution pass (see Build's doc comment).
  Status ResolveNames();

  std::vector<PlanNode> nodes_;
};

}  // namespace smoke

#endif  // SMOKE_PLAN_PLAN_H_
