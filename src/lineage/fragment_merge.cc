#include "lineage/fragment_merge.h"

#include <utility>

#include "common/macros.h"

namespace smoke {

std::vector<rid_t> ExclusiveOffsets(const std::vector<size_t>& counts) {
  std::vector<rid_t> offsets(counts.size() + 1, 0);
  rid_t total = 0;
  for (size_t m = 0; m < counts.size(); ++m) {
    offsets[m] = total;
    total += static_cast<rid_t>(counts[m]);
  }
  offsets[counts.size()] = total;
  return offsets;
}

RidArray ConcatBackwardArrays(std::vector<RidArray> parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  RidArray merged;
  merged.reserve(total);
  for (auto& p : parts) {
    merged.insert(merged.end(), p.begin(), p.end());
    RidArray().swap(p);
  }
  return merged;
}

RidArray ScatterForwardArrays(size_t num_inputs,
                              const std::vector<RidArray>& parts,
                              const std::vector<rid_t>& in_begins,
                              const std::vector<rid_t>& out_offsets) {
  SMOKE_DCHECK(parts.size() == in_begins.size());
  SMOKE_DCHECK(out_offsets.size() >= parts.size());
  RidArray merged(num_inputs, kInvalidRid);
  for (size_t m = 0; m < parts.size(); ++m) {
    const RidArray& p = parts[m];
    const rid_t in_begin = in_begins[m];
    const rid_t shift = out_offsets[m];
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] != kInvalidRid) merged[in_begin + i] = p[i] + shift;
    }
  }
  return merged;
}

RidIndex ConcatIndexParts(std::vector<RidIndex> parts,
                          const std::vector<rid_t>& out_offsets) {
  SMOKE_DCHECK(out_offsets.size() >= parts.size());
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  RidIndex merged(total);
  size_t pos = 0;
  for (size_t m = 0; m < parts.size(); ++m) {
    const rid_t shift = out_offsets[m];
    for (size_t i = 0; i < parts[m].size(); ++i, ++pos) {
      RidVec list = std::move(parts[m].list(i));
      for (size_t j = 0; j < list.size(); ++j) list[j] += shift;
      merged.list(pos) = std::move(list);
    }
    parts[m] = RidIndex();
  }
  return merged;
}

RidIndex InvertBackwardArray(const RidArray& backward, size_t num_inputs) {
  // Exact sizing pass, then fill — appends happen in increasing output rid
  // order, matching the list order of single-threaded capture.
  std::vector<uint32_t> counts(num_inputs, 0);
  for (rid_t in : backward) {
    if (in != kInvalidRid) ++counts[in];
  }
  RidIndex fw(num_inputs);
  for (size_t i = 0; i < num_inputs; ++i) {
    if (counts[i] > 0) fw.list(i).Reserve(counts[i]);
  }
  for (rid_t out = 0; out < backward.size(); ++out) {
    rid_t in = backward[out];
    if (in != kInvalidRid) fw.Append(in, out);
  }
  return fw;
}

// ---- incremental-refresh append builders ----

namespace {

/// Widens a sparse form once, in place, to the raw form refresh appends to
/// (kArray without overflow lists, else kIndex); every other form is left
/// as it is.
void WidenSparse(LineageIndex* idx) {
  if (idx->kind() != LineageIndex::Kind::kSparseArray) return;
  const SparseRidArray& s = idx->sparse_array();
  *idx = s.num_overflow() == 0
             ? LineageIndex::FromArray(s.ToArray(), s.num_valid())
             : LineageIndex::FromIndex(RidIndex::FromLists(s.ToLists()));
}

/// Promotes a 1:1 form to its 1:N counterpart in place (kArray -> kIndex,
/// kEncodedArray -> kEncodedIndex under `codec`; a kInvalidRid entry
/// becomes an empty list). The 1:N forms are left as they are; a sparse
/// form is widened by the caller first.
void PromoteToOneToN(LineageIndex* idx, LineageCodec codec) {
  switch (idx->kind()) {
    case LineageIndex::Kind::kArray: {
      const RidArray& a = idx->array();
      RidIndex index(a.size());
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == kInvalidRid) continue;
        index.list(i).Reserve(1);
        index.list(i).PushBack(a[i]);
      }
      *idx = LineageIndex::FromIndex(std::move(index));
      break;
    }
    case LineageIndex::Kind::kEncodedArray: {
      PostingsBuilder b(codec);
      idx->encoded_array().ForEach([&b](size_t, rid_t r) {
        b.AddList(&r, r == kInvalidRid ? 0 : 1);
      });
      *idx = LineageIndex::FromEncodedPostings(b.Finish());
      break;
    }
    case LineageIndex::Kind::kSparseArray:  // widened by the caller
    case LineageIndex::Kind::kIndex:
    case LineageIndex::Kind::kEncodedIndex:
    case LineageIndex::Kind::kNone:
      break;
  }
}

}  // namespace

void AppendArrayValue(LineageIndex* idx, rid_t v, LineageCodec codec) {
  WidenSparse(idx);
  switch (idx->kind()) {
    case LineageIndex::Kind::kArray:
      idx->mutable_array().push_back(v);
      break;
    case LineageIndex::Kind::kEncodedArray:
      idx->mutable_encoded_array().Append(v);
      break;
    case LineageIndex::Kind::kIndex:
    case LineageIndex::Kind::kEncodedIndex:
      // A 1:N form takes the value as a list of at most one rid.
      AppendIndexList(idx, &v, v == kInvalidRid ? 0 : 1, codec);
      break;
    case LineageIndex::Kind::kSparseArray:  // widened above
    case LineageIndex::Kind::kNone:         // a pruned direction stays empty
      break;
  }
}

void AppendIndexList(LineageIndex* idx, const rid_t* d, size_t n,
                     LineageCodec codec) {
  WidenSparse(idx);
  if (idx->IsOneToOne()) {
    if (n <= 1) {
      AppendArrayValue(idx, n == 0 ? kInvalidRid : d[0], codec);
      return;
    }
    PromoteToOneToN(idx, codec);
  }
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex: {
      RidIndex& index = idx->mutable_index();
      const size_t i = index.size();
      index.Resize(i + 1);
      index.list(i).PushBackAll(d, n);
      break;
    }
    case LineageIndex::Kind::kEncodedIndex:
      idx->mutable_encoded_postings().AppendNewList(d, n, codec);
      break;
    case LineageIndex::Kind::kArray:         // promoted above
    case LineageIndex::Kind::kSparseArray:   // widened above
    case LineageIndex::Kind::kEncodedArray:  // promoted above
    case LineageIndex::Kind::kNone:          // a pruned direction stays empty
      break;
  }
}

void ExtendIndexList(LineageIndex* idx, size_t i, const rid_t* d, size_t n,
                     LineageCodec codec) {
  if (n == 0) return;
  WidenSparse(idx);
  if (idx->kind() == LineageIndex::Kind::kArray && n == 1 &&
      idx->array()[i] == kInvalidRid) {
    idx->mutable_array()[i] = d[0];  // the position's first rid
    return;
  }
  PromoteToOneToN(idx, codec);
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex:
      idx->mutable_index().list(i).PushBackAll(d, n);
      break;
    case LineageIndex::Kind::kEncodedIndex:
      idx->mutable_encoded_postings().ExtendList(i, d, n);
      break;
    case LineageIndex::Kind::kArray:         // promoted above
    case LineageIndex::Kind::kSparseArray:   // widened above
    case LineageIndex::Kind::kEncodedArray:  // promoted above
    case LineageIndex::Kind::kNone:          // a pruned direction stays empty
      break;
  }
}

void InsertSortedIntoIndexList(LineageIndex* idx, size_t i, rid_t v,
                               LineageCodec codec) {
  WidenSparse(idx);
  if (idx->IsOneToOne()) {
    const rid_t cur = idx->ValueAt(static_cast<rid_t>(i));
    if (cur == v) return;  // already present
    if (cur == kInvalidRid && idx->kind() == LineageIndex::Kind::kArray) {
      idx->mutable_array()[i] = v;
      return;
    }
    PromoteToOneToN(idx, codec);
  }
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex: {
      RidVec& list = idx->mutable_index().list(i);
      size_t pos = 0;
      while (pos < list.size() && list[pos] < v) ++pos;
      if (pos < list.size() && list[pos] == v) return;  // already present
      list.PushBack(v);  // grow, then shift the tail up one slot
      for (size_t j = list.size() - 1; j > pos; --j) list[j] = list[j - 1];
      list[pos] = v;
      break;
    }
    case LineageIndex::Kind::kEncodedIndex:
      idx->mutable_encoded_postings().InsertSortedIntoList(i, v);
      break;
    case LineageIndex::Kind::kArray:         // promoted above
    case LineageIndex::Kind::kSparseArray:   // widened above
    case LineageIndex::Kind::kEncodedArray:  // promoted above
    case LineageIndex::Kind::kNone:          // a pruned direction stays empty
      break;
  }
}

}  // namespace smoke
