// Deterministic merging of per-morsel lineage fragments (ROADMAP "Parallel
// capture").
//
// Morsel-driven operators (engine/select.cc, engine/hash_join.cc,
// engine/group_by.cc) emit one fragment per morsel: rids on the INPUT side
// are absolute (a morsel knows its [begin, end) row range), rids on the
// OUTPUT side are morsel-local because a morsel cannot know how many output
// rows earlier morsels produce. The merge step concatenates fragments in
// morsel order, shifting output-side rids by each morsel's output offset
// (the exclusive prefix sum of per-morsel output counts).
//
// Because every function here consumes fragments in morsel index order —
// never in thread completion order — merged lineage is bit-identical to the
// single-threaded run for any thread count (tests/parallel_capture_test.cc).
#ifndef SMOKE_LINEAGE_FRAGMENT_MERGE_H_
#define SMOKE_LINEAGE_FRAGMENT_MERGE_H_

#include <vector>

#include "lineage/rid_index.h"

namespace smoke {

/// Exclusive prefix sum of per-morsel output counts: offsets[m] is the
/// global output rid of morsel m's first output row. One extra trailing
/// entry holds the total.
std::vector<rid_t> ExclusiveOffsets(const std::vector<size_t>& counts);

/// Concatenates per-morsel 1:1 backward fragments (output-position order ==
/// morsel order; values are already absolute input rids). Parts are consumed.
RidArray ConcatBackwardArrays(std::vector<RidArray> parts);

/// Merges per-morsel forward fragments into one input-indexed array of
/// `num_inputs` entries. Part m covers input rows [in_begins[m],
/// in_begins[m] + parts[m].size()) and holds morsel-local output rids
/// (kInvalidRid for dropped rows), shifted up by out_offsets[m].
RidArray ScatterForwardArrays(size_t num_inputs,
                              const std::vector<RidArray>& parts,
                              const std::vector<rid_t>& in_begins,
                              const std::vector<rid_t>& out_offsets);

/// Concatenates per-morsel 1:N forward fragments over disjoint input spans
/// (part m's entry i is input row in_begins[m] + i), shifting every stored
/// output rid by out_offsets[m]. Parts are consumed.
RidIndex ConcatIndexParts(std::vector<RidIndex> parts,
                          const std::vector<rid_t>& out_offsets);

/// Inverts a merged 1:1 backward array (output rid -> input rid) into the
/// exactly-sized forward index (input rid -> output rids). Output rids are
/// appended in increasing order — the same list order single-threaded
/// capture produces. Used for the build-side forward index of a parallel
/// join probe, where per-morsel fragments would overlap on the input side.
RidIndex InvertBackwardArray(const RidArray& backward, size_t num_inputs);

// ---- incremental-refresh append builders (src/refresh) ----
//
// Delta batches extend retained composed indexes in place. Rid spaces are
// monotonic, so every maintenance operation is append-shaped: new output
// positions land at the end of 1:1 arrays, new source positions append
// lists, and existing posting lists grow at their tail (the one exception,
// sorted mid-list insert, only occurs for static relations feeding a
// group-by root). Each builder dispatches over the raw and encoded forms
// of LineageIndex, so refresh works directly on store-encoded retained
// indexes (encoded appends route through the PostingsBuilder encode path).
//
// The list builders also take the 1:1 forms a forward index is narrowed
// to (FreezeForward): a position that gains its first rid stays 1:1, and
// the first position to reach a second rid promotes the whole index to its
// 1:N counterpart (raw to kIndex, encoded to kEncodedIndex under `codec`)
// before the edge is added. A sparse form is widened once, at its first
// mutation, to kArray (no overflow lists) or kIndex. An empty (pruned)
// index stays empty.

/// Appends one trailing position holding `v` (kInvalidRid: no rid) to a
/// 1:1 form; a 1:N form gains a list of at most one rid under `codec`.
void AppendArrayValue(LineageIndex* idx, rid_t v, LineageCodec codec);

/// Appends a new source position holding `n` rids. Encoded indexes encode
/// the new list under `codec`.
void AppendIndexList(LineageIndex* idx, const rid_t* d, size_t n,
                     LineageCodec codec);

/// Appends `n` rids at the tail of existing list `i`, preserving order.
void ExtendIndexList(LineageIndex* idx, size_t i, const rid_t* d, size_t n,
                     LineageCodec codec);

/// Inserts `v` into ascending duplicate-free list `i` (no-op when already
/// present).
void InsertSortedIntoIndexList(LineageIndex* idx, size_t i, rid_t v,
                               LineageCodec codec);

}  // namespace smoke

#endif  // SMOKE_LINEAGE_FRAGMENT_MERGE_H_
