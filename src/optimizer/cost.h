// Cost-based trace-strategy selection (the kAuto resolution in
// TraceBuilder::ResolveStrategy).
//
// The model prices each physical strategy from the probed seeds alone: the
// size of each seed's posting list (raw or encoded LineageIndex) and of each
// seed's (seed, code) partition (PartitionedRidIndex::PartitionSize), plus
// the store's codec and eviction state (TraceSource::stats). Pricing costs
// O(seeds) list-size lookups — never a pass over a whole index or list
// contents — and then picks the cheapest *semantically transparent*
// candidate:
//  - kIndexed and kSkipping compete on rids touched (encoded lists carry a
//    decode penalty). A skip partition is a subset of its seed's list, so
//    skipping wins whenever it is feasible;
//  - kLazy is the evicted-index fallback only: it changes the compiled
//    plan's output shape (a relation scan carries no rid column), and a
//    pruned or push-down-replaced index must error rather than silently
//    rescan, so lazy is considered only when the source is flagged evicted;
//  - kCube is priced and reported but never auto-chosen (its lineage is not
//    chainable; it stays opt-in).
// When nothing is feasible the report resolves to kIndexed so execution
// surfaces the real error.
#ifndef SMOKE_OPTIMIZER_COST_H_
#define SMOKE_OPTIMIZER_COST_H_

#include <string>
#include <vector>

#include "query/trace_builder.h"

namespace smoke {

/// One candidate strategy's feasibility and cost (rids touched).
struct StrategyCost {
  bool feasible = false;
  double cost = 0;
  std::string note;  ///< why infeasible / what the estimate is based on
};

struct TraceCostReport {
  StrategyCost indexed;
  StrategyCost lazy;
  StrategyCost skipping;
  StrategyCost cube;
  TraceStrategy chosen = TraceStrategy::kIndexed;
  uint32_t skip_code = 0;  ///< valid when skipping is feasible

  /// One-line candidate summary for EXPLAIN (PlanExplain::strategy_detail).
  std::string Summary() const;
};

/// True when `relation` is the source block's fact relation — the only one
/// its push-down artifacts cover (the skip index partitions the fact
/// backward lists; the cube folds fact rows).
bool PushdownCoversRelation(const TraceSource& src,
                            const std::string& relation);

/// Resolves the data-skipping partition code: the skip index must cover the
/// traced relation and be resident, every partition column must be pinned by
/// a constant equality predicate, and the combined value must name an
/// existing partition. Encoding matches BuildDictionary / DictKeyOfRow.
bool ResolveSkipCode(const TraceSource& src, const std::string& relation,
                     const std::vector<Predicate>& filters, uint32_t* code);

/// True when the lazy rescan can answer this backward trace transparently
/// (dim-free SPJA, fact group keys, a single in-range seed over the fact
/// relation). Stricter than the explicit kLazy strategy, which permits dims
/// because the paper's baseline opts in.
bool LazyFeasible(const TraceSource& src, const std::string& relation,
                  const std::vector<rid_t>& seeds);

/// Prices every strategy for a single-hop backward trace and picks one.
TraceCostReport CostTraceStrategies(const TraceSource& src,
                                    const std::string& relation,
                                    const std::vector<rid_t>& seeds,
                                    const std::vector<Predicate>& filters);

}  // namespace smoke

#endif  // SMOKE_OPTIMIZER_COST_H_
