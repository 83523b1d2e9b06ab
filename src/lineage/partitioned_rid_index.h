// Partitioned rid arrays for the data-skipping optimization (paper
// Section 4.2): the rid lists of a backward index are partitioned by a
// (dictionary-encoded) predicate attribute so parameterized lineage
// consuming queries only scan the matching partition.
#ifndef SMOKE_LINEAGE_PARTITIONED_RID_INDEX_H_
#define SMOKE_LINEAGE_PARTITIONED_RID_INDEX_H_

#include <vector>

#include "common/macros.h"
#include "common/rid_vec.h"
#include "common/types.h"
#include "lineage/store/rid_codec.h"

namespace smoke {

/// \brief A backward lineage index whose per-output rid lists are split by
/// partition code: entry (output, code) -> rids of input records in that
/// output's lineage whose partition attribute has that code.
///
/// Two storage tiers: raw RidVec partitions during capture (write path),
/// and — after Freeze() — a compressed flat arena (lineage/store/) that the
/// skipping strategy consumes via the decode-on-demand ForEachInPartition
/// iterator without materializing rid lists.
class PartitionedRidIndex {
 public:
  PartitionedRidIndex() = default;
  PartitionedRidIndex(size_t num_outputs, uint32_t num_codes)
      : num_codes_(num_codes), parts_(num_outputs * num_codes) {}

  void Reset(size_t num_outputs, uint32_t num_codes) {
    num_codes_ = num_codes;
    parts_.assign(num_outputs * num_codes, RidVec());
  }

  /// Appends one output entry (a fresh row of empty partitions). Used when
  /// output cardinality grows during capture (group-by discovers groups).
  void AddOutput() { parts_.resize(parts_.size() + num_codes_); }

  void SetNumCodes(uint32_t num_codes) {
    SMOKE_DCHECK(parts_.empty());
    num_codes_ = num_codes;
  }

  size_t num_outputs() const {
    if (num_codes_ == 0) return 0;
    return (frozen_ ? encoded_.num_lists() : parts_.size()) / num_codes_;
  }
  uint32_t num_codes() const { return num_codes_; }

  void Append(size_t output, uint32_t code, rid_t rid) {
    SMOKE_DCHECK(code < num_codes_);
    SMOKE_DCHECK(!frozen_);
    parts_[output * num_codes_ + code].PushBack(rid);
  }

  /// Raw tier only (capture-side reuse); frozen indexes are consumed via
  /// ForEachInPartition.
  const RidVec& Partition(size_t output, uint32_t code) const {
    SMOKE_DCHECK(code < num_codes_);
    SMOKE_DCHECK(!frozen_);
    return parts_[output * num_codes_ + code];
  }

  bool frozen() const { return frozen_; }

  /// Number of rids in partition (output, code), on either tier — O(1)
  /// raw, a scan of the partition's encoded words when frozen.
  size_t PartitionSize(size_t output, uint32_t code) const {
    SMOKE_DCHECK(code < num_codes_);
    const size_t i = output * num_codes_ + code;
    return frozen_ ? encoded_.ListSize(i) : parts_[i].size();
  }

  /// (Re-)encodes every partition under `policy` into the compressed flat
  /// arena and drops the raw RidVec tier. Appends are no longer allowed
  /// afterwards. Freezing an already-frozen index decodes and re-encodes
  /// (budget enforcement re-encodes cold forced-codec indexes adaptively).
  void Freeze(LineageCodec policy) {
    PostingsBuilder b(policy);
    if (frozen_) {
      std::vector<rid_t> list;
      for (size_t i = 0; i < encoded_.num_lists(); ++i) {
        list.clear();
        encoded_.AppendList(i, &list);
        b.AddList(list.data(), list.size());
      }
    } else {
      for (const RidVec& l : parts_) b.AddList(l);
    }
    encoded_ = b.Finish();
    parts_.clear();
    parts_.shrink_to_fit();
    frozen_ = true;
  }

  /// Decode-on-demand iteration over partition (output, code), in stored
  /// order. Works on both tiers — the skipping trace path consumes
  /// partitions through this, so frozen (compressed) skip indexes answer
  /// queries without decompression.
  template <typename F>
  void ForEachInPartition(size_t output, uint32_t code, F&& f) const {
    SMOKE_DCHECK(code < num_codes_);
    const size_t i = output * num_codes_ + code;
    if (frozen_) {
      encoded_.ForEachInList(i, f);
      return;
    }
    for (rid_t r : parts_[i]) f(r);
  }

  /// All rids of `output` across partitions (equivalent to an unpartitioned
  /// backward trace).
  void TraceAllInto(size_t output, std::vector<rid_t>* out) const {
    for (uint32_t c = 0; c < num_codes_; ++c) {
      ForEachInPartition(output, c, [out](rid_t r) { out->push_back(r); });
    }
  }

  size_t TotalEdges() const {
    if (frozen_) return encoded_.TotalEdges();
    size_t n = 0;
    for (const auto& l : parts_) n += l.size();
    return n;
  }

  size_t MemoryBytes() const {
    size_t b = parts_.capacity() * sizeof(RidVec);
    for (const auto& l : parts_) b += l.MemoryBytes();
    return b + encoded_.MemoryBytes();
  }

 private:
  uint32_t num_codes_ = 0;
  bool frozen_ = false;
  std::vector<RidVec> parts_;  // row-major: [output][code] (raw tier)
  EncodedPostings encoded_;    // frozen tier
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_PARTITIONED_RID_INDEX_H_
