// Pluggable rid-set codecs for the compressed lineage store.
//
// Smoke's rid arrays/indexes are write-optimized: capture appends into raw
// RidVec buffers because array resizing dominates capture cost (paper
// Section 3.1). Their *retained* footprint, however, is the system's
// dominant memory cost. Following "Compression and In-Situ Query Processing
// for Fine-Grained Array Lineage" (Zhao & Krishnan), the store re-encodes
// finalized indexes into compressed forms that are queried WITHOUT
// decompression: consumers iterate encoded posting lists decode-on-demand
// (ForEach over one list at a time), never materializing the full index.
//
// Five physical encodings, chosen per posting list / per 1:1 array, with
// what each costs to read:
//  - kRaw:       the rids verbatim. 32 bits per rid; no decode.
//  - kRange:     maximal step-+1 runs as (start, len) pairs (arrays: run
//                start positions and values). Lossless for ANY rid
//                sequence. Lists decode O(1) per rid; array At is a binary
//                search over the runs.
//  - kBitmap:    base rid + bit words (postings only; strictly ascending,
//                duplicate-free lists). Decode scans span/64 words, one ctz
//                per rid.
//  - kPacked:    frame-of-reference bit-packing (1:1 arrays only): each
//                position holds value - base in w bits, w set by the largest
//                value, with the all-ones code reserved for kInvalidRid. At
//                is O(1): one unaligned 64-bit load, a shift and a mask.
//  - kEliasFano: strictly ascending lists (postings only) as l low bits
//                per rid plus a unary high-bit stream, ~2 + log2(span / n)
//                bits per rid. Decode is sequential: one ctz over the high
//                words and one unaligned 64-bit load of the low bits per rid.
//
// The adaptive policy picks the smallest eligible encoding per list or
// array from one-pass stats (count, run count, sortedness, span) at
// capture-finalize time, with one exception: a list dense enough that its
// bitmap costs at most 8 bits per rid stays a bitmap rather than
// Elias-Fano (at most about twice the size, with no low-bit load per rid
// to decode). Every policy round-trips every input exactly: encoded and
// raw indexes answer lineage queries with bit-identical results. Packed and
// Elias-Fano reads assume a little-endian host.
#ifndef SMOKE_LINEAGE_STORE_RID_CODEC_H_
#define SMOKE_LINEAGE_STORE_RID_CODEC_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/rid_vec.h"
#include "common/types.h"

namespace smoke {

class RidIndex;

/// Encoding policy for a lineage index (CaptureOptions::lineage_codec).
/// kRaw/kRange/kBitmap force one encoding family for every list (bench
/// ablations); kAdaptive picks per posting list.
enum class LineageCodec : uint8_t { kRaw, kRange, kBitmap, kAdaptive };

const char* LineageCodecName(LineageCodec c);

/// Physical encoding of one posting list / rid array.
enum class RidSetEncoding : uint8_t {
  kRaw = 0,
  kRange = 1,
  kBitmap = 2,
  kPacked = 3,     ///< 1:1 arrays only
  kEliasFano = 4,  ///< posting lists only
};

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "packed and Elias-Fano reads load little-endian words");

/// The bits under `mask` (at most 57 of them) at bit offset `bit` of
/// `bytes`: one unaligned 64-bit load. The caller guarantees 8 readable
/// bytes from the load's first byte.
inline uint64_t LoadBits(const unsigned char* bytes, uint64_t bit,
                         uint64_t mask) {
  uint64_t w;
  std::memcpy(&w, bytes + (bit >> 3), sizeof(w));
  return (w >> (bit & 7)) & mask;
}

/// Low-bit count of an Elias-Fano list of `n` rids spanning [0, span].
inline unsigned EliasFanoLowBits(size_t n, uint64_t span) {
  const uint64_t universe = span + 1;
  if (universe <= n) return 0;
  return 63u - static_cast<unsigned>(__builtin_clzll(universe / n));
}

/// One-pass statistics of a rid sequence, driving the adaptive choice.
struct RidSetStats {
  size_t count = 0;
  size_t runs = 0;            ///< maximal step-+1 ascending runs
  bool ascending_nodup = true;
  rid_t min = 0;
  rid_t max = 0;

  static RidSetStats Of(const rid_t* data, size_t n);

  size_t RawWords() const { return count; }
  size_t RangeWords() const { return runs * 2; }
  bool BitmapEligible() const { return ascending_nodup && count > 0; }
  /// 1 base word + bit words spanning [min, max]; only when eligible.
  size_t BitmapWords() const {
    return 1 + (static_cast<size_t>(max) - min) / 32 + 1;
  }
  /// Header (count, base, low-bit count) + low words + high words; the
  /// high stream is at least two words, so an unaligned low-bit load never
  /// leaves the list. Eligible exactly when a bitmap is.
  size_t EliasFanoWords() const {
    const uint64_t span = static_cast<uint64_t>(max) - min;
    const unsigned l = EliasFanoLowBits(count, span);
    const size_t high_words = ((span >> l) + count + 31) / 32;
    return 3 + (count * l + 31) / 32 + (high_words < 2 ? 2 : high_words);
  }
};

/// Resolves the policy against the stats of one list. Forced kBitmap falls
/// back to kRange for lists a bitmap cannot represent losslessly (unsorted
/// or duplicated) or would blow up on (span > 8x the raw size).
RidSetEncoding ChooseEncoding(const RidSetStats& stats, LineageCodec policy);

/// \brief A compressed 1-to-N lineage index: per-source posting lists in a
/// flat arena (offsets + per-list encoding tag + data words), replacing the
/// per-list RidVec headers and growth slack of RidIndex. Immutable after
/// Encode; consumers decode one list at a time (in-situ).
class EncodedPostings {
 public:
  /// Default: zero lists, no allocation (a default-constructed instance
  /// lives inside every LineageIndex). PostingsBuilder seeds offsets_.
  EncodedPostings() = default;

  /// Encodes every list of `index` under `policy`.
  static EncodedPostings Encode(const RidIndex& index, LineageCodec policy);

  size_t num_lists() const { return encodings_.size(); }

  RidSetEncoding list_encoding(size_t i) const {
    SMOKE_DCHECK(i < encodings_.size());
    return static_cast<RidSetEncoding>(encodings_[i]);
  }

  /// Decode-on-demand iteration over list `i`, in stored order. Lists that
  /// have been mutated through the refresh overlay iterate their decoded
  /// overlay copy instead of the arena words.
  template <typename F>
  void ForEachInList(size_t i, F&& f) const {
    SMOKE_DCHECK(i < encodings_.size());
    if (!overlay_.empty()) {
      if (auto it = overlay_.find(i); it != overlay_.end()) {
        for (rid_t r : it->second) f(r);
        return;
      }
    }
    const uint64_t b = offsets_[i];
    const uint64_t e = offsets_[i + 1];
    switch (static_cast<RidSetEncoding>(encodings_[i])) {
      case RidSetEncoding::kRaw:
        for (uint64_t w = b; w < e; ++w) f(data_[w]);
        break;
      case RidSetEncoding::kRange:
        for (uint64_t w = b; w < e; w += 2) {
          const rid_t start = data_[w];
          const rid_t len = data_[w + 1];
          for (rid_t k = 0; k < len; ++k) f(start + k);
        }
        break;
      case RidSetEncoding::kBitmap: {
        const rid_t base = data_[b];
        ForEachSetBit(b + 1, e, [&](uint64_t bit) {
          f(base + static_cast<rid_t>(bit));
        });
        break;
      }
      case RidSetEncoding::kEliasFano: {
        const rid_t n = data_[b];
        const rid_t base = data_[b + 1];
        const unsigned l = data_[b + 2];
        const uint64_t low_mask = (uint64_t{1} << l) - 1;
        const uint64_t low_words = (static_cast<uint64_t>(n) * l + 31) / 32;
        const auto* low_bytes =
            reinterpret_cast<const unsigned char*>(data_.data() + b + 3);
        // Rid k sets high bit ((rid - base) >> l) + k.
        uint64_t k = 0;
        uint64_t low_bit = 0;
        ForEachSetBit(b + 3 + low_words, e, [&](uint64_t bit) {
          const uint64_t lo = LoadBits(low_bytes, low_bit, low_mask);
          f(base + static_cast<rid_t>(((bit - k) << l) | lo));
          ++k;
          low_bit += l;
        });
        break;
      }
      case RidSetEncoding::kPacked:
        SMOKE_DCHECK(false);  // arrays only
        break;
    }
  }

  /// True when list `i` decodes strictly ascending by construction (a
  /// bitmap or Elias-Fano list the overlay has not taken over).
  bool ListAscending(size_t i) const {
    const auto enc = static_cast<RidSetEncoding>(encodings_[i]);
    return (enc == RidSetEncoding::kBitmap ||
            enc == RidSetEncoding::kEliasFano) &&
           (overlay_.empty() || overlay_.count(i) == 0);
  }

  /// Appends list `i` onto `out` (the TraceInto contract).
  void AppendList(size_t i, std::vector<rid_t>* out) const {
    ForEachInList(i, [out](rid_t r) { out->push_back(r); });
  }

  /// Decoded length of list `i` (scans the encoded words, not the rids).
  size_t ListSize(size_t i) const;

  // ---- incremental refresh mutators (src/refresh) ----
  //
  // Monotonic rid spaces make posting-list growth append-shaped, so the
  // encoded store supports three in-place mutations without a full
  // re-encode. Tail lists extend directly in the arena (the common case:
  // the delta touches the most recently written list); everything else
  // shifts the touched list into a decoded per-list overlay, leaving the
  // arena words of untouched lists shared and compressed.

  /// Appends a brand-new list (source rid == num_lists()) encoded under
  /// `policy` — the same choice PostingsBuilder::AddList makes.
  void AppendNewList(const rid_t* d, size_t n, LineageCodec policy);

  /// Appends `n` rids onto existing list `i`, preserving order. Arena
  /// fast path when `i` is the tail list under kRaw/kRange; otherwise
  /// (bitmap, Elias-Fano, interior lists) the list moves to the overlay.
  void ExtendList(size_t i, const rid_t* d, size_t n);

  /// Inserts `v` into ascending duplicate-free list `i`, keeping it sorted
  /// and skipping the insert when `v` is already present.
  void InsertSortedIntoList(size_t i, rid_t v);

  /// Decodes the whole index back to its raw form (round-trip tests,
  /// re-encoding under a different policy).
  RidIndex Decode() const;

  size_t TotalEdges() const;
  size_t MemoryBytes() const {
    size_t b = offsets_.capacity() * sizeof(uint64_t) + encodings_.capacity() +
               data_.capacity() * sizeof(rid_t);
    for (const auto& [i, list] : overlay_) {
      (void)i;
      b += sizeof(size_t) + list.capacity() * sizeof(rid_t);
    }
    return b;
  }

 private:
  friend class PostingsBuilder;

  /// f(bit) for every set bit of the bit stream in arena words [b, e),
  /// ascending, read 64 bits at a time: one ctz per set bit.
  template <typename F>
  void ForEachSetBit(uint64_t b, uint64_t e, F&& f) const {
    uint64_t w = b;
    for (; w + 2 <= e; w += 2) {
      uint64_t word;
      std::memcpy(&word, data_.data() + w, sizeof(word));
      const uint64_t word_bit = (w - b) * 32;
      while (word != 0) {
        f(word_bit + static_cast<uint64_t>(__builtin_ctzll(word)));
        word &= word - 1;
      }
    }
    if (w < e) {
      uint32_t word = data_[w];
      const uint64_t word_bit = (w - b) * 32;
      while (word != 0) {
        f(word_bit + static_cast<uint64_t>(__builtin_ctz(word)));
        word &= word - 1;
      }
    }
  }

  /// Moves list `i` out of the arena into its decoded overlay copy and
  /// returns it (no-op when already overlaid).
  std::vector<rid_t>& OverlayList(size_t i);

  std::vector<uint64_t> offsets_;   ///< word offsets into data_, n+1 entries
  std::vector<uint8_t> encodings_;  ///< RidSetEncoding per list
  std::vector<rid_t> data_;         ///< flat arena of encoded words
  /// Refresh overlay: decoded copies of mutated lists, keyed by list id.
  /// Readers (ForEachInList/ListSize) consult it first.
  std::unordered_map<size_t, std::vector<rid_t>> overlay_;
};

/// \brief Incremental construction of an EncodedPostings: append lists in
/// source order, each encoded under the builder's policy. Used by the store
/// to re-encode RidIndex lists and PartitionedRidIndex partitions without an
/// intermediate copy.
class PostingsBuilder {
 public:
  explicit PostingsBuilder(LineageCodec policy) : policy_(policy) {
    out_.offsets_.push_back(0);
  }

  /// Encodes `n` rids as the next list.
  void AddList(const rid_t* data, size_t n);
  void AddList(const RidVec& list) { AddList(list.data(), list.size()); }

  /// Shrinks the arena to size (MemoryBytes() reports capacity — growth
  /// slack would both waste memory and inflate the budget accounting).
  EncodedPostings Finish() {
    out_.offsets_.shrink_to_fit();
    out_.encodings_.shrink_to_fit();
    out_.data_.shrink_to_fit();
    return std::move(out_);
  }

 private:
  LineageCodec policy_;
  EncodedPostings out_;
};

/// Bytes of the kAdaptive EncodedRidArray over `n` positions whose values
/// form `runs` maximal runs (step-+1 valid runs and kInvalidRid runs, as
/// kRange stores them) and whose valid rids lie in [lo, hi] (lo ==
/// kInvalidRid: none). Lets a caller holding those stats size the
/// encoding without building it.
size_t AdaptiveArrayBytes(size_t n, size_t runs, rid_t lo, rid_t hi);

/// \brief A compressed 1-to-1 lineage array (RidArray): position -> rid or
/// kInvalidRid. Three encodings: raw values; maximal runs — step-+1
/// ascending value runs and constant kInvalidRid runs — stored as parallel
/// (run start position, run start value) arrays with O(log runs) random
/// access, so a contiguous selection's backward array collapses to one run;
/// or frame-of-reference bit-packing with O(1) random access, so a group-by
/// forward over g groups costs about log2(g + 1) bits per row. (Bitmaps and
/// Elias-Fano do not apply to 1:1 arrays; forced kBitmap behaves like
/// kAdaptive here.)
class EncodedRidArray {
 public:
  EncodedRidArray() = default;

  /// Takes the array by value: when the chosen encoding is raw the input
  /// is adopted (moved) instead of copied — re-encoding happens exactly
  /// when the budget is under pressure, so peak transient memory matters.
  static EncodedRidArray Encode(std::vector<rid_t> array,
                                LineageCodec policy);
  /// Encodes a borrowed array (the serving layer's snapshot encode reads
  /// the builder's raw arrays in place).
  static EncodedRidArray Encode(const rid_t* d, size_t n,
                                LineageCodec policy);
  /// Encodes as `enc` (kRaw, kRange or kPacked) instead of a policy's
  /// choice.
  static EncodedRidArray EncodeAs(const rid_t* d, size_t n,
                                  RidSetEncoding enc);

  /// O(1) reader over a kPacked array: the code at a position is
  /// value - base, or `mask` (all ones) for kInvalidRid.
  struct PackedReader {
    const unsigned char* bytes = nullptr;
    uint64_t width = 0;
    uint64_t mask = 0;
    rid_t base = 0;

    uint64_t Code(size_t i) const { return LoadBits(bytes, i * width, mask); }
    rid_t operator()(size_t i) const {
      const uint64_t c = Code(i);
      return c == mask ? kInvalidRid : base + static_cast<rid_t>(c);
    }
  };

  size_t size() const { return size_; }
  RidSetEncoding encoding() const { return encoding_; }
  /// Bits per position of a kPacked array.
  unsigned width() const { return width_; }

  PackedReader packed() const {
    SMOKE_DCHECK(encoding_ == RidSetEncoding::kPacked);
    return PackedReader{reinterpret_cast<const unsigned char*>(words_.data()),
                        width_, (uint64_t{1} << width_) - 1, base_};
  }

  /// The rid at position `i` (kInvalidRid = no counterpart).
  rid_t At(size_t i) const {
    SMOKE_DCHECK(i < size_);
    if (encoding_ == RidSetEncoding::kRaw) return data_[i];
    if (encoding_ == RidSetEncoding::kPacked) return packed()(i);
    // Binary search for the run containing i.
    size_t lo = 0, hi = run_pos_.size();
    while (hi - lo > 1) {
      const size_t mid = (lo + hi) / 2;
      if (run_pos_[mid] <= i) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const rid_t v = run_val_[lo];
    if (v == kInvalidRid) return kInvalidRid;
    return v + static_cast<rid_t>(i - run_pos_[lo]);
  }

  /// Linear decode: f(position, rid) for every position, in order.
  template <typename F>
  void ForEach(F&& f) const {
    if (encoding_ == RidSetEncoding::kRaw) {
      for (size_t i = 0; i < size_; ++i) f(i, data_[i]);
      return;
    }
    if (encoding_ == RidSetEncoding::kPacked) {
      const PackedReader p = packed();
      for (size_t i = 0; i < size_; ++i) f(i, p(i));
      return;
    }
    for (size_t r = 0; r < run_pos_.size(); ++r) {
      const size_t begin = run_pos_[r];
      const size_t end = r + 1 < run_pos_.size() ? run_pos_[r + 1] : size_;
      const rid_t v = run_val_[r];
      for (size_t i = begin; i < end; ++i) {
        f(i, v == kInvalidRid
                 ? kInvalidRid
                 : v + static_cast<rid_t>(i - begin));
      }
    }
  }

  std::vector<rid_t> Decode() const;

  /// Appends one position at the end (incremental refresh): extends the
  /// trailing run in place when `v` continues it, else starts a new run —
  /// the append-shaped mutation monotonic rid spaces produce. A packed
  /// array writes `v` in place while it fits the frame, else repacks wider.
  void Append(rid_t v);

  size_t MemoryBytes() const {
    return data_.capacity() * sizeof(rid_t) +
           run_pos_.capacity() * sizeof(uint32_t) +
           run_val_.capacity() * sizeof(rid_t) +
           words_.capacity() * sizeof(uint64_t);
  }

 private:
  /// The kPacked form of `d`, whose valid rids lie in [lo, hi]
  /// (lo == kInvalidRid: none).
  static EncodedRidArray Pack(const rid_t* d, size_t n, rid_t lo, rid_t hi);
  /// Writes code `c` at position `i` of a kPacked array (words_ sized).
  void PutCode(size_t i, uint64_t c);

  RidSetEncoding encoding_ = RidSetEncoding::kRaw;
  size_t size_ = 0;
  std::vector<rid_t> data_;       ///< kRaw: the values
  std::vector<uint32_t> run_pos_; ///< kRange: run start positions (first 0)
  std::vector<rid_t> run_val_;    ///< kRange: run start values / kInvalidRid
  /// kPacked: width_-bit codes, plus one trailing word so the last code's
  /// 64-bit load stays inside the buffer.
  std::vector<uint64_t> words_;
  uint8_t width_ = 0;
  rid_t base_ = 0;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_STORE_RID_CODEC_H_
