// Instrumented hash equi-join (paper Section 3.2.4).
//
// A hash join splits into ⋈ht (build on the left relation A) and ⋈probe
// (probe with the right relation B). Lineage: backward rid *arrays* for both
// sides (each output row has exactly one A and one B ancestor) and forward
// rid *indexes* (an input record can produce many join results).
//
//  - Inject: ⋈'ht augments each hash entry with i_rids (A rids for the
//    entry's key); ⋈'probe tracks the output rid and populates all four
//    indexes. Forward-index resizing for A is the dominant overhead because
//    output cardinalities are unknown during the probe.
//  - Defer: adds o_rids to each entry — the rid of the *first* output record
//    for each B match (output records for one match run are contiguous).
//    After the probe, scanht pre-allocates and populates A's forward and
//    backward indexes exactly. Variant kDeferForwardOnly defers only A's
//    forward index (Smoke-D-DeferForw in Figure 7).
//  - Pk-fk optimization: i_rids collapses to a single rid; B's forward index
//    is an rid array; backward arrays are pre-allocated (join cardinality =
//    matched-B cardinality); Defer ≡ Inject.
//  - Logic-Rid: output annotated with prov_rid_a / prov_rid_b columns (the
//    join output *is* Perm's denormalized lineage graph). Logic-Tup is the
//    unannotated output itself. Logic-Idx additionally scans the annotated
//    output to build the four rid indexes.
//  - Phys-Mem / Phys-Bdb: one virtual Emit per (output, input) edge — two
//    per output row — via CaptureOptions::writer (A side) and
//    JoinSpec::writer_right (B side).
//
// In composable plans this kernel backs the kHashJoin node
// (plan/operator.h): the left child is the build side, the right the probe
// side, and the four indexes become the node's two lineage fragments.
#ifndef SMOKE_ENGINE_HASH_JOIN_H_
#define SMOKE_ENGINE_HASH_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "engine/capture.h"
#include "lineage/query_lineage.h"
#include "storage/table.h"

namespace smoke {

/// Join description. Join keys must be int64 columns (all joins in the
/// paper's workloads are integer keys).
struct JoinSpec {
  int left_key = -1;
  int right_key = -1;
  /// Name-based key references: resolved by PlanBuilder::Build against the
  /// build (left) / probe (right) child's output schema, then cleared.
  std::string left_key_name;
  std::string right_key_name;

  /// Build-side key is unique (primary key): enables the pk-fk
  /// optimizations above.
  bool pk_build = false;

  /// When false, the join output relation is not materialized (used by the
  /// M:N microbenchmark whose output exceeds memory; lineage indexes are
  /// still built). Lineage and annotations are unaffected.
  bool materialize_output = true;

  /// Defer variant (only meaningful under CaptureMode::kDefer).
  enum class DeferVariant : uint8_t { kBoth, kForwardOnly };
  DeferVariant defer_variant = DeferVariant::kBoth;

  /// Phys-* edge sink for the right relation (left uses
  /// CaptureOptions::writer).
  LineageWriter* writer_right = nullptr;
};

/// The ⋈ht build table over the left relation A: key -> dense slot, with
/// each slot's A rids in scan order (the probe's match order). Built once
/// per execution; under CaptureOptions::retain_refresh_state it outlives
/// the kernel so incremental refresh (src/refresh/) probes appended probe
/// rows against it instead of building a second map (paper P4).
struct JoinHashTable {
  IntKeyMap map;
  bool pk = false;  ///< JoinSpec::pk_build: one A rid per slot
  /// M:N: i_rids[slot] holds the A rids for the entry's key.
  std::vector<RidVec> i_rids;
  /// Pk build: exactly one A rid per entry.
  std::vector<rid_t> single_rid;
  /// Defer: first output rid of each B-match run for the entry.
  std::vector<RidVec> o_rids;

  explicit JoinHashTable(size_t expected) : map(expected) {}

  /// The A rids of `slot` (from map.Find), in scan order.
  const rid_t* rids(uint32_t slot) const {
    return pk ? &single_rid[slot] : i_rids[slot].data();
  }
  size_t count(uint32_t slot) const { return pk ? 1 : i_rids[slot].size(); }
};

struct JoinResult {
  Table output;           ///< left columns ++ right columns (+ annotations)
  QueryLineage lineage;   ///< input 0 = left (A), input 1 = right (B)
  size_t output_cardinality = 0;  ///< valid even when not materialized
  /// The build table, kept only under CaptureOptions::retain_refresh_state.
  std::shared_ptr<const JoinHashTable> build_table;
  /// InvalidArgument (and an otherwise empty result) on an unknown key
  /// name, a non-int64 key, or a duplicate key on a pk_build side.
  Status status;
};

/// Executes A ⋈ B with the capture technique in `opts`.
JoinResult HashJoinExec(const Table& left, const std::string& left_name,
                        const Table& right, const std::string& right_name,
                        const JoinSpec& spec, const CaptureOptions& opts);

}  // namespace smoke

#endif  // SMOKE_ENGINE_HASH_JOIN_H_
