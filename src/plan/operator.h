// The uniform physical-operator capture contract (paper Section 3.3),
// extended with partition-aware execution (ROADMAP "Parallel capture").
//
// Every operator in an instrumented plan implements the same interface:
//   (input batch(es), CaptureOptions) -> (output batch, one lineage
//   fragment per input)
// A fragment is the operator-local backward/forward mapping between the
// operator's output positions and one input's positions, in one of the two
// physical index forms (rid array / rid index). The executor composes
// adjacent fragments (lineage/compose.h) into end-to-end indexes — the
// operators themselves never see more than their own inputs, which is what
// makes the plan API composable.
//
// Partition awareness: an OperatorInput may carry a morsel view — a
// half-open [row_begin, row_end) window over the borrowed batch. Fragments
// keep ABSOLUTE table rids on the input side and execution-local rids on
// the output side, so the fragments of disjoint morsel views concatenate
// into the full-input fragment by shifting output rids with each view's
// output offset (lineage/fragment_merge.h). With CaptureOptions::
// num_threads > 1 the kernels do exactly this internally: morsels are
// captured into thread-local fragment buffers and merged deterministically
// in morsel order, so results are bit-identical to single-threaded runs.
//
// The concrete implementations delegate to the instrumented kernels in
// src/engine/ (SelectExec, HashJoinExec, GroupByExec, the set operators and
// the fused SPJA block), preserving their inject/defer fast paths and
// hash-table rid reuse unchanged.
#ifndef SMOKE_PLAN_OPERATOR_H_
#define SMOKE_PLAN_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/capture.h"
#include "engine/group_by.h"
#include "engine/hash_join.h"
#include "lineage/rid_index.h"
#include "plan/plan.h"
#include "plan/scheduler.h"
#include "storage/table.h"

namespace smoke {

/// The lineage fragment of one operator execution with respect to one of
/// its inputs. Input-side rids are absolute positions in the input batch
/// (even under a morsel view); output-side rids are local to this
/// execution's output.
struct LineageFragment {
  LineageIndex backward;  ///< output position -> input positions
  LineageIndex forward;   ///< input position -> output positions
  /// Pure pipelined 1:1 operators (projection) mark their fragment as
  /// identity instead of materializing an index; composition passes the
  /// accumulated lineage through unchanged. Never set under a partial
  /// morsel view (the view's 1:1 mapping is offset, not identity).
  bool identity = false;
};

/// One bound operator input: a borrowed batch plus the label used for
/// relation pruning (base-relation name for scans, node label otherwise).
struct OperatorInput {
  const Table* table = nullptr;
  std::string name;

  /// Morsel/partition view: when `has_view` is set the operator consumes
  /// only rows [view.begin, view.end) of `table`. Supported by the
  /// row-partitioned operators (select, project); partition-ignorant
  /// operators reject partial views. Fragment rids on this input stay
  /// absolute, so per-view fragments merge with fragment_merge.h.
  Morsel view;
  bool has_view = false;

  Morsel EffectiveView() const {
    if (has_view) return view;
    Morsel full;
    full.begin = 0;
    full.end = static_cast<rid_t>(table->num_rows());
    return full;
  }
  bool IsFullRange() const {
    return !has_view ||
           (view.begin == 0 && view.end == table->num_rows());
  }
};

/// What an operator execution produces under the uniform contract.
struct OperatorResult {
  Table output;
  size_t output_cardinality = 0;
  /// Parallel to the inputs. Individual fragment indexes are empty when the
  /// mode captures nothing (kNone) or the input was pruned.
  std::vector<LineageFragment> fragments;
  /// SPJA block only: the block-level artifacts (annotated relation, group
  /// counts, push-down skip index / cube) that the plan result carries when
  /// this operator is the root.
  std::shared_ptr<SPJAArtifacts> spja_artifacts;
  /// Group-by under plan-level defer scheduling (CaptureOptions::
  /// defer_plan_finalize): the kernel result whose lineage is still pending
  /// — it retains the γht hash table that PlanResult::FinalizeDeferred()
  /// probes at think-time. The matching fragment stays empty until then.
  std::shared_ptr<GroupByResult> deferred_group_by;
  /// Group-by under CaptureOptions::retain_refresh_state: the finalized
  /// kernel's γht handle, kept alive so delta batches can probe and extend
  /// the aggregate state in place (src/refresh/).
  std::shared_ptr<GroupByHandle> group_by;
  /// Hash join under CaptureOptions::retain_refresh_state: the kernel's
  /// ⋈ht build table, which delta batches probe (src/refresh/).
  std::shared_ptr<const JoinHashTable> join_build;
};

/// \brief A physical operator bound to a plan node.
///
/// The bound node must outlive the operator. Execution is const — one
/// operator may be executed repeatedly (e.g. by benches).
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const char* name() const = 0;

  /// Runs the operator over `inputs` with the capture technique in `opts`,
  /// filling `*out`. Inputs arrive in the node's child order.
  virtual Status Execute(const std::vector<OperatorInput>& inputs,
                         const CaptureOptions& opts,
                         OperatorResult* out) const = 0;
};

/// Creates the physical operator for a non-scan plan node. The node must
/// outlive the returned operator.
std::unique_ptr<Operator> MakeOperator(const PlanNode& node);

}  // namespace smoke

#endif  // SMOKE_PLAN_OPERATOR_H_
