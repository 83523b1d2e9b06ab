// Lineage index representations (paper Section 3.1).
//
// Two physical forms:
//  - RidArray: 1-to-1 relationships (e.g., selection backward/forward,
//    group-by forward). Entry i holds the single rid related to rid i.
//  - RidIndex: 1-to-N relationships (e.g., group-by backward, join forward).
//    Entry i points to an rid array of related rids. Arrays start at
//    capacity 10 and grow 1.5x (RidVec).
//
// A retained forward index takes the 1:1 form whenever no input reaches
// two outputs: 4 bytes per input row instead of a 24-byte list header plus
// its rids. ForwardIndexBuilder applies the rule while an index is built
// (the SPJA block's dimension forwards, composed and merged plan forwards,
// trace fragments); NarrowForward (lineage/compose.h) applies it to a root
// kernel's forward when the plan's lineage is frozen.
#ifndef SMOKE_LINEAGE_RID_INDEX_H_
#define SMOKE_LINEAGE_RID_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rid_vec.h"
#include "common/types.h"
#include "lineage/store/rid_codec.h"

namespace smoke {

/// 1-to-1 lineage: position -> single rid (kInvalidRid = no counterpart,
/// e.g., a selection input tuple that failed the predicate).
using RidArray = std::vector<rid_t>;

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

/// The 1:N form of a 1:1 array: one exactly-sized single-rid list per
/// valid entry, an empty list per kInvalidRid.
inline RidIndex PromoteToIndex(const RidArray& array) {
  RidIndex index(array.size());
  for (size_t i = 0; i < array.size(); ++i) {
    if (array[i] == kInvalidRid) continue;
    index.list(i).Reserve(1);
    index.list(i).PushBack(array[i]);
  }
  return index;
}

/// \brief Tagged union over the physical lineage forms, with a uniform
/// trace interface. Direction and endpoint metadata live in QueryLineage.
///
/// Two raw forms (write-optimized, what capture produces) and two encoded
/// forms (read-optimized, what the compressed lineage store re-encodes
/// retained indexes into at finalize time — lineage/store/). Consumers that
/// go through the uniform accessors (TraceInto / ForEachRelated / ValueAt)
/// work over all forms without decompressing whole indexes.
class LineageIndex {
 public:
  enum class Kind : uint8_t {
    kNone,
    kArray,          ///< raw 1:1
    kIndex,          ///< raw 1:N
    kEncodedArray,   ///< compressed 1:1 (lineage/store/rid_codec.h)
    kEncodedIndex,   ///< compressed 1:N posting lists
  };

  LineageIndex() = default;
  static LineageIndex FromArray(RidArray array) {
    LineageIndex idx;
    idx.kind_ = Kind::kArray;
    idx.array_ = std::move(array);
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
  /// True for the 1:1 forms (raw or encoded) — ValueAt is available.
  bool IsOneToOne() const {
    return kind_ == Kind::kArray || kind_ == Kind::kEncodedArray;
  }

  const RidArray& array() const {
    SMOKE_DCHECK(kind_ == Kind::kArray);
    return array_;
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
  RidArray& mutable_array() { return array_; }
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
    return kind_ == Kind::kArray ? array_[pos] : earray_.At(pos);
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
      case Kind::kArray: {
        size_t n = 0;
        for (rid_t r : array_) n += (r != kInvalidRid);
        return n;
      }
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
    if (kind_ == Kind::kArray) array_.shrink_to_fit();
    if (kind_ == Kind::kIndex) index_.ShrinkToFit();
  }

  size_t MemoryBytes() const {
    switch (kind_) {
      case Kind::kArray:        return array_.capacity() * sizeof(rid_t);
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
  RidIndex index_;
  EncodedRidArray earray_;
  EncodedPostings epostings_;
};

/// \brief Builds a forward index (input rid -> output rids) in the
/// narrowest form that holds it: a 1:1 RidArray while every input reaches
/// at most one output, promoted once to a RidIndex at the first input that
/// reaches a second. Promotion keeps each input's rids in insertion order,
/// so the result equals what appending straight into a RidIndex gives.
class ForwardIndexBuilder {
 public:
  ForwardIndexBuilder() = default;
  explicit ForwardIndexBuilder(size_t num_inputs)
      : array_(num_inputs, kInvalidRid) {}

  /// Records edge in -> out, unless `out` is the last output recorded for
  /// `in` (consecutive repeats collapse, as capture's forward lists do).
  void Add(rid_t in, rid_t out) {
    if (!promoted_) {
      rid_t& cur = array_[in];
      if (cur == kInvalidRid || cur == out) {
        cur = out;
        return;
      }
      Promote();
    }
    RidVec& l = index_.list(in);
    if (l.empty() || l[l.size() - 1] != out) l.PushBack(out);
  }

  /// Records the whole output list of `in`, whose outputs must not have
  /// been recorded yet.
  void SetList(rid_t in, const rid_t* d, size_t n) {
    if (!promoted_) {
      if (n <= 1) {
        array_[in] = n == 0 ? kInvalidRid : d[0];
        return;
      }
      Promote();
    }
    index_.list(in).PushBackAll(d, n);
  }

  LineageIndex Finish() {
    return promoted_ ? LineageIndex::FromIndex(std::move(index_))
                     : LineageIndex::FromArray(std::move(array_));
  }

 private:
  void Promote() {
    index_ = PromoteToIndex(array_);
    RidArray().swap(array_);
    promoted_ = true;
  }

  RidArray array_;
  RidIndex index_;
  bool promoted_ = false;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_RID_INDEX_H_
