// Write-optimized rid container used inside lineage indexes.
#ifndef SMOKE_COMMON_RID_VEC_H_
#define SMOKE_COMMON_RID_VEC_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "common/types.h"

namespace smoke {

/// \brief Growable array of rids with the growth policy from the paper
/// (Section 3.1): initial capacity 10, grow by 1.5x on overflow, following
/// folly::fbvector. Array resizing dominates lineage capture cost, which is
/// why the container is ours: capture paths can pre-size it from cardinality
/// statistics (Smoke-I+TC / +EC) and benches can ablate the growth policy.
///
/// Intentionally minimal: no iterators-invalidation guarantees beyond
/// vector-like behavior, trivially relocatable payload (rid_t). Size and
/// capacity are 32-bit like rid_t itself, so one list header is 24 bytes
/// (a 1:N index holds one per source row).
class RidVec {
 public:
  static constexpr size_t kInitialCapacity = 10;

  RidVec() = default;

  /// Constructs with exact pre-allocated capacity (cardinality hints).
  explicit RidVec(size_t capacity) { Reserve(capacity); }

  RidVec(const RidVec& other) { *this = other; }
  RidVec& operator=(const RidVec& other) {
    if (this == &other) return *this;
    size_ = 0;
    Reserve(other.size_);
    if (other.size_ > 0) {
      std::memcpy(data_, other.data_, other.size_ * sizeof(rid_t));
    }
    size_ = other.size_;
    return *this;
  }

  RidVec(RidVec&& other) noexcept
      : data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_),
        realloc_count_(other.realloc_count_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
    other.realloc_count_ = 0;
  }
  RidVec& operator=(RidVec&& other) noexcept {
    if (this == &other) return *this;
    std::free(data_);
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    realloc_count_ = other.realloc_count_;
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
    other.realloc_count_ = 0;
    return *this;
  }

  ~RidVec() { std::free(data_); }

  void PushBack(rid_t rid) {
    if (size_ == capacity_) Grow();
    data_[size_++] = rid;
  }

  /// Appends `n` rids in one step (fragment merging). Allocates exactly —
  /// merge sites know the final size, so growth slack would be waste.
  void PushBackAll(const rid_t* src, size_t n) {
    if (n == 0) return;
    Reserve(size_ + n);
    std::memcpy(data_ + size_, src, n * sizeof(rid_t));
    size_ += static_cast<uint32_t>(n);
  }

  /// Ensures room for at least `capacity` elements (exact allocation; no
  /// growth slack). Used when cardinalities are known up-front.
  void Reserve(size_t capacity) {
    if (capacity <= capacity_) return;
    Reallocate(capacity);
  }

  /// Drops growth slack: reallocates to exactly size() (frees an empty
  /// list's buffer). A list that is already exact is left untouched, so
  /// its realloc_count() stays what capture made it.
  void ShrinkToFit() {
    if (capacity_ == size_) return;
    if (size_ == 0) {
      std::free(data_);
      data_ = nullptr;
      capacity_ = 0;
      return;
    }
    Reallocate(size_);
  }

  void Clear() { size_ = 0; }

  rid_t operator[](size_t i) const {
    SMOKE_DCHECK(i < size_);
    return data_[i];
  }
  rid_t& operator[](size_t i) {
    SMOKE_DCHECK(i < size_);
    return data_[i];
  }

  const rid_t* data() const { return data_; }
  rid_t* data() { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  const rid_t* begin() const { return data_; }
  const rid_t* end() const { return data_ + size_; }

  /// Number of reallocations performed so far (for resize-cost ablations).
  uint32_t realloc_count() const { return realloc_count_; }

  size_t MemoryBytes() const { return capacity_ * sizeof(rid_t); }

 private:
  void Grow() {
    size_t next = capacity_ == 0
                      ? kInitialCapacity
                      : size_t{capacity_} + (capacity_ >> 1) + 1;  // 1.5x
    Reallocate(next);
  }

  void Reallocate(size_t capacity) {
    // A list never holds more rids than a 32-bit rid space has values.
    void* p = capacity <= UINT32_MAX
                  ? std::realloc(data_, capacity * sizeof(rid_t))
                  : nullptr;
    SMOKE_CHECK(p != nullptr);
    data_ = static_cast<rid_t*>(p);
    capacity_ = static_cast<uint32_t>(capacity);
    ++realloc_count_;
  }

  rid_t* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  uint32_t realloc_count_ = 0;
};

static_assert(sizeof(RidVec) == 24, "one 1:N list header is 24 bytes");

}  // namespace smoke

#endif  // SMOKE_COMMON_RID_VEC_H_
