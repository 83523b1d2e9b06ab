// Sparse 1:1 lineage with overflow lists: the retained form of a forward
// index whose inputs mostly reach no output (a selective join's fact or
// dimension side), or whose few multi-output inputs would otherwise widen
// the whole index to 1:N.
//
// Three parts:
//  - a bitmap over input positions with an interleaved rank: per 64
//    positions one 32-bit count of the set positions before them, then the
//    64 bits (12 bytes);
//  - one 32-bit slot per set position, in position order;
//  - an overflow list per position that reaches more than one output, or
//    whose one output is at or above kOverflowTag (a slot cannot hold
//    it). Its slot is tagged (kOverflowTag | list number); an untagged
//    slot is the position's single output.
//
// A read is a bit test, a popcount over the word and one load, plus the
// list walk for a tagged slot; a pass over the set positions costs one
// ctz each plus a word per 64 positions.
#ifndef SMOKE_LINEAGE_SPARSE_RID_ARRAY_H_
#define SMOKE_LINEAGE_SPARSE_RID_ARRAY_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "common/rid_vec.h"
#include "common/types.h"

namespace smoke {

/// 1-to-1 lineage: position -> single rid (kInvalidRid = no counterpart).
using RidArray = std::vector<rid_t>;

/// \brief Bitmap-ranked 1:1 lineage plus overflow lists (see file comment).
class SparseRidArray {
 public:
  /// A slot at or above the tag names an overflow list: kOverflowTag + k is
  /// overflow list k. kInvalidRid is never a stored slot.
  static constexpr rid_t kOverflowTag = rid_t{1} << 31;

  SparseRidArray() = default;

  /// Compacts `tagged`, where kInvalidRid marks an unset position, a
  /// tagged slot names one of `overflow`, and any other value is the
  /// position's single rid. The result is exact-size.
  static SparseRidArray FromTagged(const RidArray& tagged,
                                   std::vector<RidVec> overflow) {
    return Compact(tagged, std::move(overflow), /*plain=*/false);
  }

  /// Compacts a dense 1:1 array, whose every value other than kInvalidRid
  /// is a rid: one at or above kOverflowTag gets an overflow list of its
  /// own.
  static SparseRidArray FromArray(const RidArray& array) {
    return Compact(array, {}, /*plain=*/true);
  }

  /// Exact bytes of the form over `n` positions, `num_valid` of them set
  /// and `num_overflow` of those holding lists of `overflow_edges` rids in
  /// all. The freeze rule compares it with the dense and 1:N sizes.
  static size_t BytesFor(size_t n, size_t num_valid, size_t num_overflow,
                         size_t overflow_edges) {
    return (n + 63) / 64 * kBlockWords * sizeof(uint32_t) +
           num_valid * sizeof(rid_t) + num_overflow * sizeof(RidVec) +
           overflow_edges * sizeof(rid_t);
  }

  size_t size() const { return size_; }
  /// Positions related to at least one rid.
  size_t num_valid() const { return slots_.size(); }
  /// Positions held in overflow lists: those related to more than one
  /// rid, or to one rid at or above kOverflowTag.
  size_t num_overflow() const { return overflow_.size(); }
  /// Rids held by the overflow lists.
  size_t overflow_edges() const {
    size_t n = 0;
    for (const RidVec& l : overflow_) n += l.size();
    return n;
  }

  /// The single rid of `pos`, kInvalidRid when unset (no overflow lists
  /// only).
  rid_t ValueAt(rid_t pos) const {
    SMOKE_DCHECK(overflow_.empty());
    const rid_t* s = Find(pos);
    return s == nullptr ? kInvalidRid : *s;
  }

  /// The rids related to `pos`, in stored order: `*n` of them from the
  /// returned pointer (the slot itself for a single rid). Out of line, so
  /// that LineageIndex::ForEachRelated's instantiations stay small.
  const rid_t* Related(rid_t pos, size_t* n) const;

  /// Calls `f(pos, rids, n)` for every set position in ascending order,
  /// with the `n` rids related to it. O(set positions + size / 64).
  template <typename F>
  void ForEachSet(F&& f) const {
    const rid_t* slot = slots_.data();
    for (size_t w = 0; w < blocks_.size() / kBlockWords; ++w) {
      uint64_t bits;
      std::memcpy(&bits, blocks_.data() + w * kBlockWords + 1, sizeof(bits));
      for (; bits != 0; bits &= bits - 1, ++slot) {
        const rid_t pos = static_cast<rid_t>(
            w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        if (*slot < kOverflowTag) {
          f(pos, slot, size_t{1});
        } else {
          const RidVec& l = overflow_[*slot - kOverflowTag];
          f(pos, l.data(), l.size());
        }
      }
    }
  }

  /// Number of rids related to `pos`.
  size_t ListSize(rid_t pos) const {
    size_t n;
    Related(pos, &n);
    return n;
  }

  size_t TotalEdges() const {
    return num_valid() - num_overflow() + overflow_edges();
  }

  /// The dense 1:1 array (no overflow lists only).
  RidArray ToArray() const;
  /// The 1:N lists: one exact list per position, empty where unset.
  std::vector<RidVec> ToLists() const;

  void ShrinkToFit() {
    blocks_.shrink_to_fit();
    slots_.shrink_to_fit();
    overflow_.shrink_to_fit();
    for (RidVec& l : overflow_) l.ShrinkToFit();
  }

  size_t MemoryBytes() const {
    size_t b = blocks_.capacity() * sizeof(uint32_t) +
               slots_.capacity() * sizeof(rid_t) +
               overflow_.capacity() * sizeof(RidVec);
    for (const RidVec& l : overflow_) b += l.MemoryBytes();
    return b;
  }

 private:
  static constexpr size_t kBlockWords = 3;  ///< rank, then 64 bits

  /// FromTagged (plain = false) or FromArray (plain = true).
  static SparseRidArray Compact(const RidArray& slots,
                                std::vector<RidVec> overflow, bool plain);

  /// Writes each word's rank (the set positions before it) over the
  /// bitmap already in blocks_; returns the set positions in all.
  uint32_t RankWords();

  /// The slot of `pos`, or nullptr when unset: a bit test, a popcount of
  /// the bits below it and one load.
  const rid_t* Find(rid_t pos) const {
    SMOKE_DCHECK(pos < size_);
    const uint32_t* b = blocks_.data() + (pos >> 6) * kBlockWords;
    uint64_t bits;
    std::memcpy(&bits, b + 1, sizeof(bits));
    const uint64_t bit = uint64_t{1} << (pos & 63);
    if ((bits & bit) == 0) return nullptr;
    return slots_.data() + b[0] + PopCount(bits & (bit - 1));
  }

  /// Set bits of `x`. The portable form compiles to one instruction where
  /// the target has it; __builtin_popcountll would call into libgcc on a
  /// baseline x86-64 build.
  static uint32_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<uint32_t>((x * 0x0101010101010101ULL) >> 56);
  }

  size_t size_ = 0;
  std::vector<uint32_t> blocks_;
  std::vector<rid_t> slots_;
  std::vector<RidVec> overflow_;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_SPARSE_RID_ARRAY_H_
