#include "lineage/rid_index.h"

#include <utility>

namespace smoke {

namespace {

enum class Form { kDense, kSparse, kIndex };

/// The narrowest raw form of a forward index over `n` inputs, `valid` of
/// which reach an output, `multi` of those reaching `multi_edges` outputs
/// between them, `edges` edges in all. The dense array needs no overflow
/// lists, and is kept while the sparse form would save less than half of
/// it: below that saving a rank lookup per read is not worth its cost.
Form NarrowestForm(size_t n, size_t valid, size_t multi, size_t multi_edges,
                   size_t edges) {
  const size_t sparse = SparseRidArray::BytesFor(n, valid, multi, multi_edges);
  if (multi == 0 && 2 * sparse > n * sizeof(rid_t)) return Form::kDense;
  const size_t index = n * sizeof(RidVec) + edges * sizeof(rid_t);
  return index < sparse ? Form::kIndex : Form::kSparse;
}

/// A 1:N forward in the form `form` (kDense or kSparse): single-rid lists
/// become slots and longer lists (or, sparse, a rid too large for a slot)
/// move into overflow lists.
LineageIndex NarrowIndex(RidIndex* index, size_t valid, Form form) {
  RidArray slots(index->size(), kInvalidRid);
  std::vector<RidVec> overflow;
  for (size_t i = 0; i < index->size(); ++i) {
    RidVec& l = index->list(i);
    if (l.size() == 1 &&
        (form == Form::kDense || l[0] < SparseRidArray::kOverflowTag)) {
      slots[i] = l[0];
    } else if (!l.empty()) {
      slots[i] = SparseRidArray::kOverflowTag +
                 static_cast<rid_t>(overflow.size());
      overflow.push_back(std::move(l));
    }
  }
  if (form == Form::kDense) {
    return LineageIndex::FromArray(std::move(slots), valid);
  }
  LineageIndex sparse = LineageIndex::FromSparseArray(
      SparseRidArray::FromTagged(slots, std::move(overflow)));
  sparse.ShrinkToFit();
  return sparse;
}

}  // namespace

LineageIndex FreezeForward(LineageIndex forward) {
  switch (forward.kind()) {
    case LineageIndex::Kind::kArray: {
      const size_t valid = forward.ArrayNumValid();
      if (NarrowestForm(forward.size(), valid, 0, 0, valid) == Form::kDense) {
        forward.ShrinkToFit();
        return forward;
      }
      LineageIndex sparse = LineageIndex::FromSparseArray(
          SparseRidArray::FromArray(forward.array()));
      sparse.ShrinkToFit();
      return sparse;
    }
    case LineageIndex::Kind::kSparseArray: {
      const SparseRidArray& s = forward.sparse_array();
      switch (NarrowestForm(s.size(), s.num_valid(), s.num_overflow(),
                            s.overflow_edges(), s.TotalEdges())) {
        case Form::kDense:  // a trace fragment that reaches most rows
          return LineageIndex::FromArray(s.ToArray(), s.num_valid());
        case Form::kIndex:
          return LineageIndex::FromIndex(RidIndex::FromLists(s.ToLists()));
        case Form::kSparse:
          break;
      }
      forward.ShrinkToFit();
      return forward;
    }
    case LineageIndex::Kind::kIndex: {
      RidIndex& index = forward.mutable_index();
      size_t valid = 0, multi = 0, multi_edges = 0;
      for (size_t i = 0; i < index.size(); ++i) {
        const size_t k = index.list(i).size();
        valid += k != 0;
        if (k > 1) {
          ++multi;
          multi_edges += k;
        }
      }
      const Form form = NarrowestForm(index.size(), valid, multi, multi_edges,
                                      valid - multi + multi_edges);
      if (form != Form::kIndex) return NarrowIndex(&index, valid, form);
      forward.ShrinkToFit();
      return forward;
    }
    case LineageIndex::Kind::kNone:
    case LineageIndex::Kind::kEncodedArray:
    case LineageIndex::Kind::kEncodedIndex:
      break;
  }
  return forward;
}

void ForwardIndexBuilder::AddToList(rid_t* cur, rid_t out) {
  if (*cur == kInvalidRid) {
    *cur = NewOverflow(&out, 1);
    ++num_valid_;
    return;
  }
  if (*cur < SparseRidArray::kOverflowTag) *cur = NewOverflow(cur, 1);
  RidVec& l = overflow_[*cur - SparseRidArray::kOverflowTag];
  if (l[l.size() - 1] != out) l.PushBack(out);
}

LineageIndex ForwardIndexBuilder::Finish() {
  if (overflow_.empty()) {
    return LineageIndex::FromArray(std::move(slots_), num_valid_);
  }
  LineageIndex sparse = LineageIndex::FromSparseArray(
      SparseRidArray::FromTagged(slots_, std::move(overflow_)));
  RidArray().swap(slots_);
  return sparse;
}

}  // namespace smoke
