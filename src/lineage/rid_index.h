// Lineage index representations (paper Section 3.1).
//
// Three raw physical forms:
//  - RidArray: 1-to-1 relationships (e.g., selection backward/forward,
//    group-by forward). Entry i holds the single rid related to rid i.
//  - SparseRidArray (lineage/sparse_rid_array.h): a 1-to-1 array that
//    stores only its set positions (a bitmap with ranks, one rid each),
//    plus overflow lists for the few positions that reach several rids.
//  - RidIndex: 1-to-N relationships (e.g., group-by backward, join forward).
//    Entry i points to an rid array of related rids. Arrays start at
//    capacity 10 and grow 1.5x (RidVec).
//
// Capture writes dense forms; a retained forward index is frozen into the
// narrowest of the three by size (FreezeForward): the dense array when no
// input reaches two outputs and the sparse form would take more than half
// its 4 bytes per input, else the sparse form, unless the 1:N index is
// smaller still (every input reaching many outputs). ForwardIndexBuilder
// keeps a dense array plus overflow lists while an index is built (the
// SPJA block's dimension forwards, composed and merged plan forwards,
// trace fragments), and counts its set positions, so freezing needs no
// extra pass to decide.
#ifndef SMOKE_LINEAGE_RID_INDEX_H_
#define SMOKE_LINEAGE_RID_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rid_vec.h"
#include "common/types.h"
#include "lineage/sparse_rid_array.h"
#include "lineage/store/rid_codec.h"

namespace smoke {

/// \brief 1-to-N lineage: position -> rid list.
class RidIndex {
 public:
  RidIndex() = default;
  explicit RidIndex(size_t num_entries) : lists_(num_entries) {}

  size_t size() const { return lists_.size(); }
  void Resize(size_t n) { lists_.resize(n); }

  RidVec& list(size_t i) {
    SMOKE_DCHECK(i < lists_.size());
    return lists_[i];
  }
  const RidVec& list(size_t i) const {
    SMOKE_DCHECK(i < lists_.size());
    return lists_[i];
  }

  void Append(size_t i, rid_t rid) { lists_[i].PushBack(rid); }

  /// Takes ownership of pre-built rid lists (hash-table reuse: Inject moves
  /// the i_rids arrays out of the group/join hash table instead of copying).
  static RidIndex FromLists(std::vector<RidVec> lists) {
    RidIndex idx;
    idx.lists_ = std::move(lists);
    return idx;
  }

  /// Total number of lineage edges stored.
  size_t TotalEdges() const {
    size_t n = 0;
    for (const auto& l : lists_) n += l.size();
    return n;
  }

  /// Trims the list vector and every list to exact size (freezing a
  /// captured index into a retained result). Exact lists are untouched.
  void ShrinkToFit() {
    lists_.shrink_to_fit();
    for (auto& l : lists_) l.ShrinkToFit();
  }

  size_t MemoryBytes() const {
    size_t b = lists_.capacity() * sizeof(RidVec);
    for (const auto& l : lists_) b += l.MemoryBytes();
    return b;
  }

  /// Total reallocations across all rid arrays (resize-cost ablation).
  uint64_t TotalReallocs() const {
    uint64_t n = 0;
    for (const auto& l : lists_) n += l.realloc_count();
    return n;
  }

 private:
  std::vector<RidVec> lists_;
};

/// \brief Tagged union over the physical lineage forms, with a uniform
/// trace interface. Direction and endpoint metadata live in QueryLineage.
///
/// Three raw forms (write-optimized, what capture produces and freezing
/// narrows to) and two encoded forms (read-optimized, what the compressed
/// lineage store re-encodes retained indexes into at finalize time —
/// lineage/store/). Consumers that go through the uniform accessors
/// (TraceInto / ForEachRelated / ValueAt) work over all forms without
/// decompressing whole indexes.
class LineageIndex {
 public:
  enum class Kind : uint8_t {
    kNone,
    kArray,          ///< raw 1:1
    kIndex,          ///< raw 1:N
    kEncodedArray,   ///< compressed 1:1 (lineage/store/rid_codec.h)
    kEncodedIndex,   ///< compressed 1:N posting lists
    kSparseArray,    ///< raw 1:1 over the set positions, + overflow lists
  };

  /// The count of an array whose set entries were not counted.
  static constexpr size_t kUncounted = SIZE_MAX;

  LineageIndex() = default;
  /// `num_valid`: the entries that are not kInvalidRid, when the builder
  /// counted them (FreezeForward then needs no pass to pick the form).
  static LineageIndex FromArray(RidArray array,
                                size_t num_valid = kUncounted) {
    LineageIndex idx;
    idx.kind_ = Kind::kArray;
    idx.array_ = std::move(array);
    idx.array_valid_ = num_valid;
    return idx;
  }
  static LineageIndex FromSparseArray(SparseRidArray sparse) {
    LineageIndex idx;
    idx.kind_ = Kind::kSparseArray;
    idx.sparse_ = std::move(sparse);
    return idx;
  }
  static LineageIndex FromIndex(RidIndex index) {
    LineageIndex idx;
    idx.kind_ = Kind::kIndex;
    idx.index_ = std::move(index);
    return idx;
  }
  static LineageIndex FromEncodedArray(EncodedRidArray array) {
    LineageIndex idx;
    idx.kind_ = Kind::kEncodedArray;
    idx.earray_ = std::move(array);
    return idx;
  }
  static LineageIndex FromEncodedPostings(EncodedPostings postings) {
    LineageIndex idx;
    idx.kind_ = Kind::kEncodedIndex;
    idx.epostings_ = std::move(postings);
    return idx;
  }

  Kind kind() const { return kind_; }
  bool empty() const { return kind_ == Kind::kNone; }
  bool encoded() const {
    return kind_ == Kind::kEncodedArray || kind_ == Kind::kEncodedIndex;
  }
  /// True for the 1:1 forms (raw or encoded, sparse without overflow
  /// lists) — ValueAt is available.
  bool IsOneToOne() const {
    return kind_ == Kind::kArray || kind_ == Kind::kEncodedArray ||
           (kind_ == Kind::kSparseArray && sparse_.num_overflow() == 0);
  }

  const RidArray& array() const {
    SMOKE_DCHECK(kind_ == Kind::kArray);
    return array_;
  }
  /// Set entries of the kArray form: the builder's count, or one pass.
  size_t ArrayNumValid() const {
    SMOKE_DCHECK(kind_ == Kind::kArray);
    if (array_valid_ != kUncounted) return array_valid_;
    size_t n = 0;
    for (rid_t r : array_) n += (r != kInvalidRid);
    return n;
  }
  const SparseRidArray& sparse_array() const {
    SMOKE_DCHECK(kind_ == Kind::kSparseArray);
    return sparse_;
  }
  const RidIndex& index() const {
    SMOKE_DCHECK(kind_ == Kind::kIndex);
    return index_;
  }
  const EncodedRidArray& encoded_array() const {
    SMOKE_DCHECK(kind_ == Kind::kEncodedArray);
    return earray_;
  }
  const EncodedPostings& encoded_postings() const {
    SMOKE_DCHECK(kind_ == Kind::kEncodedIndex);
    return epostings_;
  }
  /// A writer may change which entries are set: the count is dropped.
  RidArray& mutable_array() {
    array_valid_ = kUncounted;
    return array_;
  }
  RidIndex& mutable_index() { return index_; }
  EncodedRidArray& mutable_encoded_array() {
    SMOKE_DCHECK(kind_ == Kind::kEncodedArray);
    return earray_;
  }
  EncodedPostings& mutable_encoded_postings() {
    SMOKE_DCHECK(kind_ == Kind::kEncodedIndex);
    return epostings_;
  }

  /// Number of source positions this index is defined over.
  size_t size() const {
    switch (kind_) {
      case Kind::kArray:        return array_.size();
      case Kind::kSparseArray:  return sparse_.size();
      case Kind::kIndex:        return index_.size();
      case Kind::kEncodedArray: return earray_.size();
      case Kind::kEncodedIndex: return epostings_.num_lists();
      case Kind::kNone:         return 0;
    }
    return 0;
  }

  /// The single rid related to `pos` (1:1 forms only; kInvalidRid = none).
  rid_t ValueAt(rid_t pos) const {
    SMOKE_DCHECK(IsOneToOne());
    switch (kind_) {
      case Kind::kArray:        return array_[pos];
      case Kind::kSparseArray:  return sparse_.ValueAt(pos);
      case Kind::kEncodedArray: return earray_.At(pos);
      case Kind::kIndex:
      case Kind::kEncodedIndex:
      case Kind::kNone:
        break;
    }
    return kInvalidRid;
  }

  /// Calls `f(rid)` for every rid related to source position `pos`, in
  /// stored order. Decode-on-demand for the encoded forms: only the probed
  /// posting list is decoded, never the whole index (in-situ evaluation).
  template <typename F>
  void ForEachRelated(rid_t pos, F&& f) const {
    switch (kind_) {
      case Kind::kArray: {
        rid_t r = array_[pos];
        if (r != kInvalidRid) f(r);
        break;
      }
      case Kind::kSparseArray: {
        size_t n;
        const rid_t* d = sparse_.Related(pos, &n);
        for (size_t k = 0; k < n; ++k) f(d[k]);
        break;
      }
      case Kind::kIndex: {
        const RidVec& l = index_.list(pos);
        for (rid_t r : l) f(r);
        break;
      }
      case Kind::kEncodedArray: {
        rid_t r = earray_.At(pos);
        if (r != kInvalidRid) f(r);
        break;
      }
      case Kind::kEncodedIndex:
        epostings_.ForEachInList(pos, f);
        break;
      case Kind::kNone:
        break;
    }
  }

  /// Appends all rids related to source position `pos` into `out`.
  void TraceInto(rid_t pos, std::vector<rid_t>* out) const {
    if (kind_ == Kind::kIndex) {  // bulk append fast path
      const RidVec& l = index_.list(pos);
      out->insert(out->end(), l.begin(), l.end());
      return;
    }
    ForEachRelated(pos, [out](rid_t r) { out->push_back(r); });
  }

  size_t TotalEdges() const {
    switch (kind_) {
      case Kind::kArray:        return ArrayNumValid();
      case Kind::kSparseArray:  return sparse_.TotalEdges();
      case Kind::kIndex:        return index_.TotalEdges();
      case Kind::kEncodedArray: {
        size_t n = 0;
        earray_.ForEach([&n](size_t, rid_t r) { n += (r != kInvalidRid); });
        return n;
      }
      case Kind::kEncodedIndex: return epostings_.TotalEdges();
      case Kind::kNone:         return 0;
    }
    return 0;
  }

  /// Trims the raw forms to exact size (no-op for the encoded forms, which
  /// are built exact).
  void ShrinkToFit() {
    switch (kind_) {
      case Kind::kArray:       array_.shrink_to_fit(); break;
      case Kind::kSparseArray: sparse_.ShrinkToFit(); break;
      case Kind::kIndex:       index_.ShrinkToFit(); break;
      case Kind::kNone:
      case Kind::kEncodedArray:
      case Kind::kEncodedIndex:
        break;
    }
  }

  size_t MemoryBytes() const {
    switch (kind_) {
      case Kind::kArray:        return array_.capacity() * sizeof(rid_t);
      case Kind::kSparseArray:  return sparse_.MemoryBytes();
      case Kind::kIndex:        return index_.MemoryBytes();
      case Kind::kEncodedArray: return earray_.MemoryBytes();
      case Kind::kEncodedIndex: return epostings_.MemoryBytes();
      case Kind::kNone:         return 0;
    }
    return 0;
  }

 private:
  Kind kind_ = Kind::kNone;
  RidArray array_;
  size_t array_valid_ = kUncounted;
  SparseRidArray sparse_;
  RidIndex index_;
  EncodedRidArray earray_;
  EncodedPostings epostings_;
};

/// Freezes a captured forward index into a retained result: the narrowest
/// raw form by size (see the file comment), trimmed to exact size. A
/// kArray decides from its builder's count when it has one. Encoded and
/// empty indexes are returned as they are.
LineageIndex FreezeForward(LineageIndex forward);

/// \brief Builds a forward index (input rid -> output rids): a dense 1:1
/// array whose slot turns into an overflow list (tagged as in
/// SparseRidArray) at the first input that reaches a second output, or
/// whose one output is at or above SparseRidArray::kOverflowTag. Each list
/// keeps insertion order, so the result traces equal to appending straight
/// into a RidIndex.
class ForwardIndexBuilder {
 public:
  ForwardIndexBuilder() = default;
  explicit ForwardIndexBuilder(size_t num_inputs)
      : slots_(num_inputs, kInvalidRid) {}

  /// Records edge in -> out, unless `out` is the last output recorded for
  /// `in` (consecutive repeats collapse, as capture's forward lists do).
  void Add(rid_t in, rid_t out) {
    rid_t& cur = slots_[in];
    if (out < SparseRidArray::kOverflowTag) {
      if (cur == kInvalidRid) {
        cur = out;
        ++num_valid_;
        return;
      }
      if (cur == out) return;
    }
    AddToList(&cur, out);
  }

  /// Records the whole output list of `in`, whose outputs must not have
  /// been recorded yet.
  void SetList(rid_t in, const rid_t* d, size_t n) {
    if (n == 0) return;
    slots_[in] = n == 1 && d[0] < SparseRidArray::kOverflowTag
                     ? d[0]
                     : NewOverflow(d, n);
    ++num_valid_;
  }

  /// The dense array when no input reached two outputs, else the sparse
  /// form with the overflow lists.
  LineageIndex Finish();

 private:
  /// Add's list path: appends `out` to the overflow list of the input whose
  /// slot is `*cur`, starting the list when there is none.
  void AddToList(rid_t* cur, rid_t out);

  /// Starts an overflow list holding `n` rids; returns its tagged slot.
  rid_t NewOverflow(const rid_t* d, size_t n) {
    const rid_t tag =
        SparseRidArray::kOverflowTag + static_cast<rid_t>(overflow_.size());
    overflow_.emplace_back();
    overflow_.back().PushBackAll(d, n);
    return tag;
  }

  RidArray slots_;
  size_t num_valid_ = 0;
  std::vector<RidVec> overflow_;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_RID_INDEX_H_
