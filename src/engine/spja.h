// Multi-operator SPJA block executor with end-to-end lineage capture
// (paper Section 3.3) and workload-aware optimizations (Section 4).
//
// The executor handles Select-Project-Join-Aggregate blocks over a fact
// table joined to a snowflake chain of dimension tables by pk-fk joins —
// the plan shape of TPC-H Q1/Q3/Q10/Q12 and of the paper's SPJA focus.
// Selections and projections are pipelined; the dimension hash tables are
// the pipeline breakers and are augmented with lineage (the pk-side rid is
// the hash-table payload); the final aggregation is where Inject and Defer
// differ, exactly as in the paper ("the joins are instrumented identically,
// while select and project are pipelined").
//
// Lineage propagation emits a *single* set of end-to-end indexes connecting
// the query output to every base relation: per output group, one backward
// rid list per table, aligned position-by-position (position j of every
// list is the same join witness — this alignment is what Appendix E uses to
// recover why-/how-provenance). Forward: the fact side is a 1:1 rid array;
// a dimension side is a 1:1 array too unless one of its rows reaches two
// groups, and then a rid index (consecutive duplicates collapsed).
#ifndef SMOKE_ENGINE_SPJA_H_
#define SMOKE_ENGINE_SPJA_H_

#include <memory>
#include <string>
#include <vector>

#include "capture/cube_index.h"
#include "engine/aggregates.h"
#include "engine/capture.h"
#include "engine/expr.h"
#include "lineage/partitioned_rid_index.h"
#include "lineage/query_lineage.h"
#include "storage/dictionary.h"
#include "storage/table.h"

namespace smoke {

/// Reference to a column of the fact table (table == kFact) or of a
/// dimension (table == dim index).
struct ColRef {
  static constexpr int kFact = -1;
  int table = kFact;
  int col = -1;

  static ColRef Fact(int col) { return ColRef{kFact, col}; }
  static ColRef Dim(int dim, int col) { return ColRef{dim, col}; }
};

/// One pk-fk dimension join. The fk value comes from the fact table or from
/// a previously joined dimension (snowflake chains, e.g. lineitem→orders→
/// customer→nation in Q10).
struct SPJADim {
  const Table* table = nullptr;
  std::string name;
  int pk_col = -1;
  ColRef fk;
  std::vector<Predicate> filters;
};

/// An SPJA query block.
///
/// AggSpec::src indexes the table list [fact, dim0, dim1, ...] — i.e.
/// src 0 reads fact columns, src 1 + i reads dimension i (TPC-H Q12's CASE
/// aggregates read o_orderpriority from the orders dimension).
struct SPJAQuery {
  /// Most dimensions one block joins (plan validation rejects more).
  static constexpr size_t kMaxDims = 8;

  const Table* fact = nullptr;
  std::string fact_name;
  std::vector<Predicate> fact_filters;
  std::vector<SPJADim> dims;
  std::vector<ColRef> group_by;
  std::vector<AggSpec> aggs;
};

/// Workload-aware push-down configuration (Section 4.2). All push-downs
/// apply to the fact table and require CaptureMode::kInject.
struct SPJAPushdown {
  /// Selection push-down: static predicates checked before appending a fact
  /// rid to backward lineage (rows failing them still contribute to the
  /// query result, just not to the captured lineage).
  std::vector<Predicate> sel_fact;

  /// Data skipping: partition the fact backward rid lists by these columns
  /// (replaces the plain fact backward index with a PartitionedRidIndex).
  std::vector<int> skip_cols;

  /// Group-by push-down: per output group, materialize these aggregates
  /// keyed by these extra fact grouping columns (online partial cube).
  std::vector<int> cube_cols;
  std::vector<AggSpec> cube_aggs;

  bool empty() const {
    return sel_fact.empty() && skip_cols.empty() && cube_cols.empty();
  }
};

/// The block-level artifacts of an SPJA block besides its output and
/// lineage: the annotated relation, group counts and push-down structures.
struct SPJAArtifacts {
  /// The block as executed, its tables bound to the block's inputs. A plan
  /// result keeps it only when every input is a base-table scan (fact ==
  /// nullptr otherwise) — it is what the lazy rescan re-evaluates.
  SPJAQuery query;
  Table annotated;  ///< Logic modes: denormalized annotated relation
  std::vector<uint32_t> group_counts;  ///< passing fact rows per group

  // Push-down artifacts.
  PartitionedRidIndex skip_index;  ///< fact backward, partitioned
  Dictionary skip_dict;            ///< partition codes of fact rows
  CubeIndex cube;                  ///< materialized sub-aggregates
  /// The push-down configuration the artifacts were built with (empty when
  /// none) — the unified consumption API resolves its physical strategy
  /// choice (skipping / cube) against this at plan-compile time.
  SPJAPushdown applied_pushdown;
};

struct SPJAResult : SPJAArtifacts {
  Table output;          ///< group-by keys then aggregates
  QueryLineage lineage;  ///< inputs: fact, then dims in order
  size_t output_cardinality = 0;
};

/// Executes the SPJA block with the capture technique in `opts` and optional
/// push-downs. Supported modes: kNone, kInject, kDefer, kLogicRid,
/// kLogicTup, kLogicIdx (the physical baselines are evaluated on single
/// operators, as in the paper).
///
/// This entry point is a thin compatibility wrapper: it builds the canonical
/// single-block plan with PlanBuilder (plan/plan.h) and runs it through the
/// plan executor. Arbitrary plan shapes — rollups, joins of aggregated
/// subplans, select-over-aggregate — compose the same block and the other
/// operators freely through that API.
SPJAResult SPJAExec(const SPJAQuery& q, const CaptureOptions& opts,
                    const SPJAPushdown* push = nullptr);

namespace internal {

/// The fused SPJA block kernel (the instrumented multi-operator pipeline
/// described in the header comment). Invoked by the plan layer's SpjaBlock
/// operator; callers should go through SPJAExec or PlanBuilder.
SPJAResult SPJAExecFused(const SPJAQuery& q, const CaptureOptions& opts,
                         const SPJAPushdown* push = nullptr);

}  // namespace internal

}  // namespace smoke

#endif  // SMOKE_ENGINE_SPJA_H_
