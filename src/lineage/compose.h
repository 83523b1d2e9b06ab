// Lineage composition across adjacent instrumented operators (paper
// Section 3.3): Smoke stitches the per-operator rid indexes of a plan into
// one end-to-end index per base relation, so lineage queries over the plan
// output remain single secondary-index scans.
//
// Composition reads every physical form through the uniform accessors:
//   1:1 ∘ 1:1 -> RidArray   (1:1 through 1:1 stays 1:1)
//   anything through a 1:N form -> RidIndex (backward), or the builder's
//   form (forward: a RidArray when no input reaches two outputs, else the
//   sparse form with overflow lists — ForwardIndexBuilder).
//
// Backward composition preserves duplicates (witness multiplicity — the
// same property the monolithic SPJA block maintains); forward composition
// deduplicates, since forward lineage is set-valued (an input can reach an
// output through many derivations).
#ifndef SMOKE_LINEAGE_COMPOSE_H_
#define SMOKE_LINEAGE_COMPOSE_H_

#include <vector>

#include "lineage/rid_index.h"

namespace smoke {

/// Composes backward indexes of two adjacent operators.
/// `outer` maps final-output positions to intermediate positions; `inner`
/// maps intermediate positions to input positions. The result maps
/// final-output positions to input positions. Either side empty (kNone, a
/// pruned direction) yields an empty index.
LineageIndex ComposeBackward(const LineageIndex& outer,
                             const LineageIndex& inner);

/// Composes forward indexes of two adjacent operators.
/// `inner` maps input positions to intermediate positions; `outer` maps
/// intermediate positions to final-output positions. The result maps input
/// positions to final-output positions, deduplicated per input: a RidArray
/// when no input reaches two outputs, else a SparseRidArray whose overflow
/// lists hold the inputs that do.
LineageIndex ComposeForward(const LineageIndex& inner,
                            const LineageIndex& outer);

/// Multiset-unions `src` into `dst` (backward semantics: duplicate edges
/// from distinct derivation paths are kept). Both must be defined over the
/// same number of source positions. Used when a plan DAG reaches the same
/// node through multiple paths.
void MergeBackwardInto(LineageIndex* dst, LineageIndex src);

/// Set-unions `src` into `dst` (forward semantics: edges are deduplicated,
/// lists kept sorted; 1:1 when no input reaches two outputs).
void MergeForwardInto(LineageIndex* dst, LineageIndex src);

/// The forward index of a trace whose output position i is input rid
/// rids[i] (the inverse of its 1:1 backward array), over `num_rows` input
/// positions, as ForwardIndexBuilder leaves it: a RidArray when the rids are
/// duplicate-free, else the sparse form with an overflow list for a
/// repeated rid (a dedup=false trace through join witnesses). Freezing
/// (FreezeForward) then narrows it to the smallest form. Every rid must
/// already be validated against `num_rows`.
LineageIndex InvertTraceRids(const std::vector<rid_t>& rids, size_t num_rows);

/// The identity 1:1 index over `n` positions (position i maps to i). Used to
/// materialize the lineage of pure pipelined operators (projection) when a
/// composition endpoint needs an explicit index.
LineageIndex IdentityIndex(size_t n);

}  // namespace smoke

#endif  // SMOKE_LINEAGE_COMPOSE_H_
