// Sharded plan execution with cross-shard lineage composition.
//
// The coordinator compiles a LogicalPlan whose scans touch sharded tables
// (shard/sharded_table.h) into per-shard subplans plus exchange/merge steps
// — the per-segment plan + motion architecture of MPP engines, carried over
// with Smoke's twist: lineage composes across the shard boundary exactly as
// it does across morsels.
//
//   1. Classification. The lowest-cost sharded scan becomes the *driver*;
//      the maximal subtree above it built from select/project/derive nodes
//      and hash joins probing the driver side is the *sharded region*. Join
//      build sides are executed once on the coordinator and broadcast (or,
//      when both join children are direct scans of tables hash-sharded on
//      the join keys with equal shard counts, read co-located from the
//      build table's own slices). Everything above the region runs on the
//      coordinator as an ordinary unsharded plan.
//   2. Per-shard execution. Each shard runs the unmodified morsel-parallel
//      executor over its slice. Per-row *order keys* — the driver's global
//      rid recovered from the shard's composed backward index — drive a
//      stable gather merge that restores the exact unsharded row order.
//   3. Exchange. A group-by directly above the region becomes a
//      partial-aggregate exchange: each shard aggregates locally, the
//      coordinator merges partial states (AggLayout::Merge) keyed by the
//      encoded group key, orders merged groups by first-encounter order
//      key, and finalizes. (Floating-point SUM/AVG accumulate per shard
//      before merging, so results are bit-identical whenever the summed
//      values are exactly representable — integers, counts — and agree to
//      reassociation otherwise.)
//   4. Lineage. Per-shard indexes are remapped through the ShardMap codec
//      and concatenated in gather order into region-level indexes, then
//      composed (lineage/compose.h) with the coordinator plan's lineage —
//      the same associativity that makes morsel fragment merging exact.
//
// A sharded result is an ordinary PlanResult: lineage queries over it probe
// the composed end-to-end index like any other retained plan, and nothing
// in it refers to the shard slices or the ShardMap after execution.
#ifndef SMOKE_SHARD_COORDINATOR_H_
#define SMOKE_SHARD_COORDINATOR_H_

#include <unordered_map>

#include "common/status.h"
#include "plan/executor.h"
#include "shard/sharded_table.h"

namespace smoke {

/// Maps base-table pointers (what plan scans hold) to their sharded form.
using ShardResolver = std::unordered_map<const Table*, const ShardedTable*>;

/// Executes `plan` sharded per `sharded` with the capture technique in
/// `opts`, writing a PlanResult bit-identical to the unsharded executor's
/// (output rows, order, composed lineage). Plans that scan no sharded table
/// fall through to the unsharded executor. Rejects defer_plan_finalize
/// (sharded lineage composes eagerly) and the logic/physical baseline modes.
Status ExecuteShardedPlan(const LogicalPlan& plan, const ShardResolver& sharded,
                          const CaptureOptions& opts, PlanResult* out);

}  // namespace smoke

#endif  // SMOKE_SHARD_COORDINATOR_H_
