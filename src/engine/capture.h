// Lineage capture configuration: technique taxonomy (paper Table 1),
// cardinality hints (Smoke-I+TC / +EC), direction & relation pruning
// (Section 4.1), and the virtual edge-writer interface used by the physical
// baselines (Phys-Mem, Phys-Bdb).
#ifndef SMOKE_ENGINE_CAPTURE_H_
#define SMOKE_ENGINE_CAPTURE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "lineage/store/rid_codec.h"

namespace smoke {

class TaskScheduler;  // plan/scheduler.h: morsel-dispatch interface

/// Capture technique taxonomy — paper Table 1.
enum class CaptureMode : uint8_t {
  kNone = 0,   ///< Baseline: run the base query without capturing lineage.
  kInject,     ///< Smoke-I: capture inline during operator execution.
  kDefer,      ///< Smoke-D: defer (parts of) index construction post-op.
  kLogicRid,   ///< Perm rewrite, rid annotations (denormalized output).
  kLogicTup,   ///< Perm rewrite, full input-tuple annotations.
  kLogicIdx,   ///< Logic-Rid + scan annotations to build Smoke indexes.
  kPhysMem,    ///< Virtual emit() per lineage edge into in-memory indexes.
  kPhysBdb,    ///< Virtual emit() per edge into an external B-tree store.
};

inline const char* CaptureModeName(CaptureMode m) {
  switch (m) {
    case CaptureMode::kNone:     return "Baseline";
    case CaptureMode::kInject:   return "Smoke-I";
    case CaptureMode::kDefer:    return "Smoke-D";
    case CaptureMode::kLogicRid: return "Logic-Rid";
    case CaptureMode::kLogicTup: return "Logic-Tup";
    case CaptureMode::kLogicIdx: return "Logic-Idx";
    case CaptureMode::kPhysMem:  return "Phys-Mem";
    case CaptureMode::kPhysBdb:  return "Phys-Bdb";
  }
  return "?";
}

inline const char* CaptureModeDescription(CaptureMode m) {
  switch (m) {
    case CaptureMode::kNone:
      return "Smoke without lineage capture";
    case CaptureMode::kInject:
      return "Smoke with inject lineage capture";
    case CaptureMode::kDefer:
      return "Smoke with defer lineage capture";
    case CaptureMode::kLogicRid:
      return "Rid-based annotation";
    case CaptureMode::kLogicTup:
      return "Tuple-based annotation";
    case CaptureMode::kLogicIdx:
      return "Indexing input-output relations";
    case CaptureMode::kPhysMem:
      return "Virtual emit function calls and no reuse";
    case CaptureMode::kPhysBdb:
      return "Lineage capture using BerkeleyDB(-sim)";
  }
  return "?";
}

inline bool IsSmokeMode(CaptureMode m) {
  return m == CaptureMode::kInject || m == CaptureMode::kDefer;
}

/// \brief Cardinality statistics available to capture (paper Sections 3.2 and
/// 6.1: knowing group/join-match cardinalities cuts capture overhead by up to
/// ~60% by pre-allocating rid arrays; selection estimates pre-size the
/// backward rid array — overestimation is preferable to resizing).
struct CardinalityHints {
  /// Exact or estimated number of input records per group / join key.
  /// Keyed by the int64 group-by (or join) key value. (Smoke-I+TC)
  std::unordered_map<int64_t, uint32_t> per_key_counts;
  bool have_per_key_counts = false;

  /// Expected number of distinct groups (pre-sizes the hash table / index).
  size_t expected_groups = 0;

  /// Estimated selectivity of a selection in [0, 1]; negative = unknown.
  /// (Smoke-I+EC)
  double selection_selectivity = -1.0;
};

/// \brief Abstract per-edge lineage sink used by the physical baselines.
///
/// The paper's Phys-* techniques route every lineage edge through a virtual
/// function call into a subsystem that the operator cannot co-optimize with
/// (Section 2.1 "Physical lineage capture"). Concrete writers live in
/// src/baselines (PhysMemWriter, BdbWriter).
class LineageWriter {
 public:
  virtual ~LineageWriter() = default;

  /// Called once before capture with input cardinality (writers may not use
  /// it — the point of Phys-* is that they cannot share operator state).
  virtual void BeginCapture(size_t input_cardinality) = 0;

  /// Stores one lineage edge: output record `out` derives from input `in`.
  virtual void Emit(rid_t out, rid_t in) = 0;

  /// Called once after the operator finishes, with the output cardinality.
  virtual void FinishCapture(size_t output_cardinality) = 0;
};

/// \brief Per-operator capture configuration.
struct CaptureOptions {
  CaptureMode mode = CaptureMode::kNone;

  /// Direction pruning (Section 4.1): skip building an index that the known
  /// workload will never use.
  bool capture_backward = true;
  bool capture_forward = true;

  /// Relation pruning (Section 4.1): names of input relations to capture
  /// for; empty means all. (Consulted by multi-input operators.)
  std::vector<std::string> only_relations;

  /// Optional statistics (TC/EC variants). Borrowed, may be null.
  const CardinalityHints* hints = nullptr;

  /// Edge sink for kPhysMem / kPhysBdb. Borrowed, must outlive the operator.
  LineageWriter* writer = nullptr;

  /// Morsel-driven parallel capture. With num_threads > 1 the parallelizable
  /// kernels (select, group-by, hash-join probe) partition their input into
  /// morsels, capture into thread-local fragment buffers, and merge the
  /// per-morsel fragments deterministically (lineage/fragment_merge.h) —
  /// results and lineage are bit-identical to num_threads == 1. Modes other
  /// than kNone/kInject/kDefer, and kernels without a parallel path, fall
  /// back to the sequential implementation. Default 1 preserves the exact
  /// single-threaded code paths.
  int num_threads = 1;

  /// Shared worker pool (borrowed; plan/executor.cc owns one per ExecutePlan
  /// so all operators of a plan reuse threads; the serving layer passes a
  /// TieredScheduler lease instead so morsels carry a priority class).
  /// Kernels called directly with num_threads > 1 and no scheduler spin up
  /// a transient pool.
  TaskScheduler* scheduler = nullptr;

  /// Rows per morsel for the row-partitioned kernels; 0 = default
  /// (TaskScheduler::kDefaultMorselRows).
  size_t morsel_rows = 0;

  /// Plan-level defer scheduling: when true (and mode == kDefer), plan
  /// execution leaves deferred group-by capture unfinalized and skips
  /// lineage composition; PlanResult::FinalizeDeferred() completes both at
  /// think-time. Ignored by the standalone kernels.
  bool defer_plan_finalize = false;

  /// Retain the operator-level state incremental refresh needs (src/
  /// refresh/): the optimized plan, per-node intermediate outputs, group-by
  /// hash handles and join build tables. Costs memory proportional to the
  /// intermediates, so it is opt-in; SmokeEngine::AppendRows and
  /// ServeCore's incremental snapshot path turn it on for retained views.
  /// Incompatible with defer_plan_finalize (refresh needs composed indexes
  /// and finalized group-bys).
  bool retain_refresh_state = false;

  /// Compressed lineage store policy (lineage/store/): how the engine
  /// re-encodes this query's retained indexes at capture-finalize time.
  /// Capture itself always writes raw (write-optimized) buffers; traces
  /// over encoded indexes are evaluated in-situ and return bit-identical
  /// results for every codec. kRaw keeps today's representation.
  LineageCodec lineage_codec = LineageCodec::kRaw;

  /// Run the rule-based plan rewriter (src/optimizer/) before executing a
  /// LogicalPlan. Rewrites preserve results and lineage bit-identically;
  /// false is the ablation / debugging path (bench --no-optimize). Ignored
  /// by the standalone kernels.
  bool optimize = true;

  /// True when this operator execution should take a parallel path.
  bool WantsParallel() const {
    return num_threads > 1 &&
           (mode == CaptureMode::kNone || mode == CaptureMode::kInject ||
            mode == CaptureMode::kDefer);
  }

  bool WantsTable(const std::string& name) const {
    if (only_relations.empty()) return true;
    for (const auto& t : only_relations) {
      if (t == name) return true;
    }
    return false;
  }

  static CaptureOptions None() { return CaptureOptions{}; }
  static CaptureOptions Inject() {
    CaptureOptions o;
    o.mode = CaptureMode::kInject;
    return o;
  }
  static CaptureOptions Defer() {
    CaptureOptions o;
    o.mode = CaptureMode::kDefer;
    return o;
  }
  static CaptureOptions Mode(CaptureMode m) {
    CaptureOptions o;
    o.mode = m;
    return o;
  }
};

}  // namespace smoke

#endif  // SMOKE_ENGINE_CAPTURE_H_
