#include "lineage/sparse_rid_array.h"

#include <utility>

namespace smoke {

SparseRidArray SparseRidArray::Compact(const RidArray& tagged,
                                       std::vector<RidVec> overflow,
                                       bool plain) {
  SparseRidArray s;
  s.size_ = tagged.size();
  const size_t words = (s.size_ + 63) / 64;
  s.blocks_.resize(words * kBlockWords);
  // Pass 1: the bitmap. Bits gather a byte at a time: a 32-bit
  // accumulator per 8 entries keeps the loop free of 64-bit variable
  // shifts.
  for (size_t w = 0; w < words; ++w) {
    const rid_t* in = tagged.data() + w * 64;
    const size_t end = s.size_ - w * 64 < 64 ? s.size_ - w * 64 : 64;
    uint64_t bits = 0;
    size_t i = 0;
    for (; i + 8 <= end; i += 8) {
      uint32_t byte = 0;
      for (size_t k = 0; k < 8; ++k) {
        byte |= static_cast<uint32_t>(in[i + k] != kInvalidRid) << k;
      }
      bits |= static_cast<uint64_t>(byte) << i;
    }
    for (; i < end; ++i) {
      bits |= static_cast<uint64_t>(in[i] != kInvalidRid) << i;
    }
    std::memcpy(s.blocks_.data() + w * kBlockWords + 1, &bits, sizeof(bits));
  }
  // Pass 2: the slots of the set positions, in position order. A plain
  // rid too large for a slot moves into an overflow list.
  s.slots_.resize(s.RankWords());
  s.overflow_ = std::move(overflow);
  rid_t* out = s.slots_.data();
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits;
    std::memcpy(&bits, s.blocks_.data() + w * kBlockWords + 1, sizeof(bits));
    const rid_t* in = tagged.data() + w * 64;
    for (; bits != 0; bits &= bits - 1) {
      rid_t v = in[__builtin_ctzll(bits)];
      if (plain && v >= kOverflowTag) {
        s.overflow_.emplace_back();
        s.overflow_.back().PushBack(v);
        v = kOverflowTag + static_cast<rid_t>(s.overflow_.size() - 1);
      }
      *out++ = v;
    }
  }
  return s;
}

uint32_t SparseRidArray::RankWords() {
  uint32_t rank = 0;
  for (size_t w = 0; w < blocks_.size() / kBlockWords; ++w) {
    uint32_t* b = blocks_.data() + w * kBlockWords;
    b[0] = rank;
    uint64_t bits;
    std::memcpy(&bits, b + 1, sizeof(bits));
    rank += PopCount(bits);
  }
  return rank;
}

const rid_t* SparseRidArray::Related(rid_t pos, size_t* n) const {
  const rid_t* s = Find(pos);
  if (s == nullptr) {
    *n = 0;
    return nullptr;
  }
  if (*s < kOverflowTag) {
    *n = 1;
    return s;
  }
  const RidVec& l = overflow_[*s - kOverflowTag];
  *n = l.size();
  return l.data();
}

RidArray SparseRidArray::ToArray() const {
  SMOKE_DCHECK(overflow_.empty());
  RidArray a(size_, kInvalidRid);
  ForEachSet([&a](rid_t pos, const rid_t* d, size_t) { a[pos] = d[0]; });
  return a;
}

std::vector<RidVec> SparseRidArray::ToLists() const {
  std::vector<RidVec> lists(size_);
  ForEachSet([&lists](rid_t pos, const rid_t* d, size_t n) {
    lists[pos].PushBackAll(d, n);
  });
  return lists;
}

}  // namespace smoke
