#include "lineage/store/rid_codec.h"

#include <algorithm>
#include <utility>

#include "lineage/rid_index.h"

namespace smoke {

const char* LineageCodecName(LineageCodec c) {
  switch (c) {
    case LineageCodec::kRaw:      return "raw";
    case LineageCodec::kRange:    return "range";
    case LineageCodec::kBitmap:   return "bitmap";
    case LineageCodec::kAdaptive: return "adaptive";
  }
  return "?";
}

RidSetStats RidSetStats::Of(const rid_t* data, size_t n) {
  RidSetStats s;
  s.count = n;
  if (n == 0) return s;
  s.runs = 1;
  s.min = s.max = data[0];
  // Branch-free and 32-bit wide, so the loop vectorizes: the serving
  // layer encodes every captured edge at every publish.
  uint32_t runs = 1, descents = 0;
  rid_t lo = data[0], hi = data[0];
  for (size_t i = 1; i < n; ++i) {
    const rid_t prev = data[i - 1];
    const rid_t cur = data[i];
    // A step-+1 run never crosses into the kInvalidRid sentinel.
    runs += (cur != prev + 1) | (cur == kInvalidRid);
    descents += cur <= prev;
    lo = std::min(lo, cur);
    hi = std::max(hi, cur);
  }
  const bool ascending = descents == 0;
  s.runs = runs;
  s.ascending_nodup = ascending;
  s.min = lo;
  s.max = hi;
  return s;
}

RidSetEncoding ChooseEncoding(const RidSetStats& stats, LineageCodec policy) {
  switch (policy) {
    case LineageCodec::kRaw:
      return RidSetEncoding::kRaw;
    case LineageCodec::kRange:
      return RidSetEncoding::kRange;
    case LineageCodec::kBitmap:
      // Lossless only for strictly-ascending duplicate-free lists; guard
      // against pathological spans (a near-empty list over a huge rid
      // universe would allocate span/32 words).
      if (stats.BitmapEligible() &&
          stats.BitmapWords() <= 8 * stats.RawWords()) {
        return RidSetEncoding::kBitmap;
      }
      return RidSetEncoding::kRange;
    case LineageCodec::kAdaptive: {
      size_t best_words = stats.RawWords();
      RidSetEncoding best = RidSetEncoding::kRaw;
      if (stats.RangeWords() < best_words) {
        best_words = stats.RangeWords();
        best = RidSetEncoding::kRange;
      }
      if (stats.BitmapEligible() && stats.BitmapWords() < best_words) {
        best_words = stats.BitmapWords();
        best = RidSetEncoding::kBitmap;
      }
      if (stats.BitmapEligible() && stats.EliasFanoWords() < best_words) {
        best = RidSetEncoding::kEliasFano;
      }
      // A list dense enough that its bitmap costs at most 8 bits per rid
      // stays a bitmap: about twice Elias-Fano's size at most, and decoded
      // with no low-bit load per rid.
      if (best == RidSetEncoding::kEliasFano &&
          stats.BitmapWords() * 4 <= stats.count) {
        best = RidSetEncoding::kBitmap;
      }
      return best;
    }
  }
  return RidSetEncoding::kRaw;
}

namespace {

/// Appends the encoded words of one list onto `data`.
void EncodeListInto(const rid_t* d, size_t n, RidSetEncoding enc,
                    std::vector<rid_t>* data) {
  switch (enc) {
    case RidSetEncoding::kRaw:
      data->insert(data->end(), d, d + n);
      break;
    case RidSetEncoding::kRange: {
      size_t i = 0;
      while (i < n) {
        size_t j = i + 1;
        while (j < n && d[j] == d[j - 1] + 1 && d[j] != kInvalidRid) ++j;
        data->push_back(d[i]);
        data->push_back(static_cast<rid_t>(j - i));
        i = j;
      }
      break;
    }
    case RidSetEncoding::kBitmap: {
      const rid_t base = d[0];
      const size_t words =
          (static_cast<size_t>(d[n - 1]) - base) / 32 + 1;
      const size_t start = data->size();
      data->push_back(base);
      data->resize(start + 1 + words, 0);
      for (size_t i = 0; i < n; ++i) {
        const size_t off = d[i] - base;
        (*data)[start + 1 + off / 32] |=
            static_cast<rid_t>(1u) << (off % 32);
      }
      break;
    }
    case RidSetEncoding::kEliasFano: {
      // Header, then the low bits of every rid - base (l each, packed
      // LSB-first), then the high parts in unary: rid k sets bit
      // (rid - base) >> l + k of the high stream.
      const rid_t base = d[0];
      const uint64_t span = static_cast<uint64_t>(d[n - 1]) - base;
      const unsigned l = EliasFanoLowBits(n, span);
      const size_t low_words = (n * l + 31) / 32;
      size_t high_words = ((span >> l) + n + 31) / 32;
      if (high_words < 2) high_words = 2;
      const size_t start = data->size();
      data->push_back(static_cast<rid_t>(n));
      data->push_back(base);
      data->push_back(l);
      data->resize(start + 3 + low_words + high_words, 0);
      rid_t* low = data->data() + start + 3;
      rid_t* high = low + low_words;
      // Each rid ORs its bits into place: no state carried from one rid
      // to the next, so the writes overlap.
      const uint64_t low_mask = (uint64_t{1} << l) - 1;
      for (size_t k = 0; k < n; ++k) {
        const uint64_t x = static_cast<uint64_t>(d[k]) - base;
        if (l > 0) {
          const uint64_t bit = k * l;
          const uint64_t lo = (x & low_mask) << (bit % 32);
          low[bit / 32] |= static_cast<rid_t>(lo);
          if (bit % 32 + l > 32) {
            low[bit / 32 + 1] |= static_cast<rid_t>(lo >> 32);
          }
        }
        const uint64_t hb = (x >> l) + k;
        high[hb / 32] |= static_cast<rid_t>(1u) << (hb % 32);
      }
      break;
    }
    case RidSetEncoding::kPacked:
      SMOKE_DCHECK(false);  // arrays only
      break;
  }
}

}  // namespace

void PostingsBuilder::AddList(const rid_t* data, size_t n) {
  out_.AppendNewList(data, n, policy_);
}

void EncodedPostings::AppendNewList(const rid_t* d, size_t n,
                                    LineageCodec policy) {
  if (offsets_.empty()) offsets_.push_back(0);
  const RidSetStats stats = RidSetStats::Of(d, n);
  const RidSetEncoding enc =
      n == 0 ? RidSetEncoding::kRaw : ChooseEncoding(stats, policy);
  EncodeListInto(d, n, enc, &data_);
  encodings_.push_back(static_cast<uint8_t>(enc));
  offsets_.push_back(data_.size());
}

std::vector<rid_t>& EncodedPostings::OverlayList(size_t i) {
  auto it = overlay_.find(i);
  if (it != overlay_.end()) return it->second;
  std::vector<rid_t> list;
  list.reserve(ListSize(i));
  ForEachInList(i, [&list](rid_t r) { list.push_back(r); });
  return overlay_.emplace(i, std::move(list)).first->second;
}

void EncodedPostings::ExtendList(size_t i, const rid_t* d, size_t n) {
  SMOKE_DCHECK(i < encodings_.size());
  if (n == 0) return;
  if (auto it = overlay_.find(i); it != overlay_.end()) {
    it->second.insert(it->second.end(), d, d + n);
    return;
  }
  // Arena fast path: only the tail list can grow in place (any trailing
  // empty list shares the arena end offset, so extending a non-last list
  // would leak the new words into it).
  const bool tail =
      i + 1 == num_lists() && offsets_[i + 1] == data_.size();
  const RidSetEncoding enc = static_cast<RidSetEncoding>(encodings_[i]);
  if (tail && enc == RidSetEncoding::kRaw) {
    data_.insert(data_.end(), d, d + n);
    offsets_[i + 1] = data_.size();
    return;
  }
  if (tail && enc == RidSetEncoding::kRange) {
    for (size_t k = 0; k < n; ++k) {
      const rid_t v = d[k];
      const uint64_t b = offsets_[i];
      const uint64_t e = offsets_[i + 1];
      bool extended = false;
      if (e > b) {
        const rid_t start = data_[e - 2];
        const rid_t len = data_[e - 1];
        const rid_t last =
            start == kInvalidRid ? kInvalidRid : start + len - 1;
        if (last != kInvalidRid && v == last + 1 && v != kInvalidRid) {
          ++data_[e - 1];
          extended = true;
        }
      }
      if (!extended) {
        data_.push_back(v);
        data_.push_back(1);
        offsets_[i + 1] = data_.size();
      }
    }
    return;
  }
  // Bitmap or interior list: shift to the decoded overlay.
  std::vector<rid_t>& list = OverlayList(i);
  list.insert(list.end(), d, d + n);
}

void EncodedPostings::InsertSortedIntoList(size_t i, rid_t v) {
  SMOKE_DCHECK(i < encodings_.size());
  // Fast path: appending past the current tail is just an extend.
  bool past_end = true;
  if (auto it = overlay_.find(i); it != overlay_.end()) {
    past_end = it->second.empty() || v > it->second.back();
  } else if (ListSize(i) > 0) {
    rid_t last = 0;
    ForEachInList(i, [&last](rid_t r) { last = r; });
    past_end = v > last;
  }
  if (past_end) {
    ExtendList(i, &v, 1);
    return;
  }
  std::vector<rid_t>& list = OverlayList(i);
  auto pos = std::lower_bound(list.begin(), list.end(), v);
  if (pos != list.end() && *pos == v) return;  // already present
  list.insert(pos, v);
}

EncodedPostings EncodedPostings::Encode(const RidIndex& index,
                                        LineageCodec policy) {
  // Choose every list's encoding first, so the arena is sized exactly
  // once: no growth copies and no shrink copy.
  const size_t n = index.size();
  std::vector<uint8_t> encs(n);
  size_t words = 0;
  for (size_t i = 0; i < n; ++i) {
    const RidVec& l = index.list(i);
    const RidSetStats stats = RidSetStats::Of(l.data(), l.size());
    const RidSetEncoding enc =
        l.size() == 0 ? RidSetEncoding::kRaw : ChooseEncoding(stats, policy);
    encs[i] = static_cast<uint8_t>(enc);
    switch (enc) {
      case RidSetEncoding::kRaw:       words += stats.RawWords(); break;
      case RidSetEncoding::kRange:     words += stats.RangeWords(); break;
      case RidSetEncoding::kBitmap:    words += stats.BitmapWords(); break;
      case RidSetEncoding::kEliasFano: words += stats.EliasFanoWords(); break;
      case RidSetEncoding::kPacked:    break;
    }
  }
  EncodedPostings out;
  out.offsets_.reserve(n + 1);
  out.offsets_.push_back(0);
  out.encodings_ = std::move(encs);
  out.data_.reserve(words);
  for (size_t i = 0; i < n; ++i) {
    const RidVec& l = index.list(i);
    EncodeListInto(l.data(), l.size(),
                   static_cast<RidSetEncoding>(out.encodings_[i]), &out.data_);
    out.offsets_.push_back(out.data_.size());
  }
  return out;
}

size_t EncodedPostings::ListSize(size_t i) const {
  SMOKE_DCHECK(i < encodings_.size());
  if (!overlay_.empty()) {
    if (auto it = overlay_.find(i); it != overlay_.end()) {
      return it->second.size();
    }
  }
  const uint64_t b = offsets_[i];
  const uint64_t e = offsets_[i + 1];
  switch (static_cast<RidSetEncoding>(encodings_[i])) {
    case RidSetEncoding::kRaw:
      return static_cast<size_t>(e - b);
    case RidSetEncoding::kRange: {
      size_t n = 0;
      for (uint64_t w = b; w < e; w += 2) n += data_[w + 1];
      return n;
    }
    case RidSetEncoding::kBitmap: {
      size_t n = 0;
      for (uint64_t w = b + 1; w < e; ++w) {
        n += static_cast<size_t>(__builtin_popcount(data_[w]));
      }
      return n;
    }
    case RidSetEncoding::kEliasFano:
      return data_[b];
    case RidSetEncoding::kPacked:
      break;
  }
  return 0;
}

RidIndex EncodedPostings::Decode() const {
  const size_t n = num_lists();
  std::vector<RidVec> lists(n);
  for (size_t i = 0; i < n; ++i) {
    RidVec& l = lists[i];
    const size_t count = ListSize(i);
    if (count > 0) l.Reserve(count);
    ForEachInList(i, [&l](rid_t r) { l.PushBack(r); });
  }
  return RidIndex::FromLists(std::move(lists));
}

size_t EncodedPostings::TotalEdges() const {
  size_t n = 0;
  for (size_t i = 0; i < num_lists(); ++i) n += ListSize(i);
  return n;
}

namespace {

/// True when `cur` extends the array run ending at `prev`: a step-+1
/// ascending value run, or a constant kInvalidRid run.
inline bool ContinuesArrayRun(rid_t prev, rid_t cur) {
  return (prev == kInvalidRid && cur == kInvalidRid) ||
         (prev != kInvalidRid && cur == prev + 1 && cur != kInvalidRid);
}

/// Bits per position of a packed array whose valid rids lie in [lo, hi]
/// (lo == kInvalidRid: none): codes 0..hi-lo stay below the all-ones
/// kInvalidRid code, so the width is that of hi - lo + 1 (at most 32).
unsigned PackedWidth(rid_t lo, rid_t hi) {
  const uint64_t top = lo == kInvalidRid ? 1 : uint64_t{hi} - lo + 1;
  return 64u - static_cast<unsigned>(__builtin_clzll(top));
}

/// The encoding `policy` gives array `d`, with the range of its valid
/// rids. Bytes of each form: raw 4 per position, range 8 per run, packed
/// its width in bits per position plus one trailing word. Forced kBitmap
/// has no 1:1 form and behaves adaptively.
struct ArrayChoice {
  RidSetEncoding enc = RidSetEncoding::kRaw;
  rid_t lo = kInvalidRid;  ///< kInvalidRid: no valid rid
  rid_t hi = 0;
};

ArrayChoice ChooseArrayEncoding(const rid_t* d, size_t n,
                                LineageCodec policy) {
  ArrayChoice c;
  if (n == 0 || policy == LineageCodec::kRaw) return c;
  if (policy == LineageCodec::kRange) {
    c.enc = RidSetEncoding::kRange;
    return c;
  }
  // Branch-free and 32-bit wide, so the loop vectorizes (kInvalidRid is
  // the largest rid, so min ignores it). A run continues on a step-+1
  // valid rid after a valid one, or on kInvalidRid after kInvalidRid.
  uint32_t runs = 1;
  rid_t lo = d[0], hi = d[0] == kInvalidRid ? 0 : d[0];
  for (size_t i = 1; i < n; ++i) {
    const rid_t prev = d[i - 1];
    const rid_t cur = d[i];
    const uint32_t inv_prev = prev == kInvalidRid;
    const uint32_t inv_cur = cur == kInvalidRid;
    const uint32_t step = cur == prev + 1;
    runs += (inv_prev ^ inv_cur) | ((inv_prev | step) ^ 1);
    lo = std::min(lo, cur);
    hi = std::max(hi, cur & (inv_cur - 1));
  }
  c.lo = lo;
  c.hi = hi;
  size_t best = n * sizeof(rid_t);
  if (runs * 2 * sizeof(rid_t) < best) {
    best = runs * 2 * sizeof(rid_t);
    c.enc = RidSetEncoding::kRange;
  }
  if ((n * PackedWidth(lo, hi) + 63) / 64 * sizeof(uint64_t) +
          sizeof(uint64_t) <
      best) {
    c.enc = RidSetEncoding::kPacked;
  }
  return c;
}

}  // namespace

EncodedRidArray EncodedRidArray::Encode(std::vector<rid_t> array,
                                        LineageCodec policy) {
  const ArrayChoice c =
      ChooseArrayEncoding(array.data(), array.size(), policy);
  if (c.enc == RidSetEncoding::kPacked) {
    return Pack(array.data(), array.size(), c.lo, c.hi);
  }
  if (c.enc != RidSetEncoding::kRaw) {
    return EncodeAs(array.data(), array.size(), c.enc);
  }
  EncodedRidArray out;  // adopt instead of copying
  out.size_ = array.size();
  out.data_ = std::move(array);
  out.data_.shrink_to_fit();
  return out;
}

EncodedRidArray EncodedRidArray::Encode(const rid_t* d, size_t n,
                                        LineageCodec policy) {
  const ArrayChoice c = ChooseArrayEncoding(d, n, policy);
  if (c.enc == RidSetEncoding::kPacked) return Pack(d, n, c.lo, c.hi);
  return EncodeAs(d, n, c.enc);
}

EncodedRidArray EncodedRidArray::Pack(const rid_t* d, size_t n, rid_t lo,
                                      rid_t hi) {
  EncodedRidArray out;
  out.encoding_ = RidSetEncoding::kPacked;
  out.size_ = n;
  out.base_ = lo == kInvalidRid ? 0 : lo;
  const unsigned w = PackedWidth(lo, hi);
  out.width_ = static_cast<uint8_t>(w);
  out.words_.assign((n * w + 63) / 64 + 1, 0);
  // Each code ORs into its own bit offset: no carried state, so the
  // writes of consecutive positions overlap.
  const uint64_t mask = (uint64_t{1} << w) - 1;
  for (size_t i = 0; i < n; ++i) {
    out.PutCode(i, d[i] == kInvalidRid ? mask : uint64_t{d[i]} - out.base_);
  }
  return out;
}

EncodedRidArray EncodedRidArray::EncodeAs(const rid_t* d, size_t n,
                                          RidSetEncoding enc) {
  EncodedRidArray out;
  out.encoding_ = enc;
  out.size_ = n;
  switch (enc) {
    case RidSetEncoding::kRaw:
      out.data_.assign(d, d + n);
      break;
    case RidSetEncoding::kRange:
      for (size_t i = 0; i < n; ++i) {
        if (i == 0 || !ContinuesArrayRun(d[i - 1], d[i])) {
          out.run_pos_.push_back(static_cast<uint32_t>(i));
          out.run_val_.push_back(d[i]);
        }
      }
      out.run_pos_.shrink_to_fit();
      out.run_val_.shrink_to_fit();
      break;
    case RidSetEncoding::kPacked: {
      rid_t lo = kInvalidRid, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        lo = std::min(lo, d[i]);
        hi = std::max(hi, d[i] == kInvalidRid ? rid_t{0} : d[i]);
      }
      return Pack(d, n, lo, hi);
    }
    case RidSetEncoding::kBitmap:
    case RidSetEncoding::kEliasFano:
      SMOKE_DCHECK(false);  // postings only
      break;
  }
  return out;
}

void EncodedRidArray::PutCode(size_t i, uint64_t c) {
  const uint64_t bit = i * width_;
  const uint64_t off = bit % 64;
  words_[bit / 64] |= c << off;
  if (off + width_ > 64) words_[bit / 64 + 1] |= c >> (64 - off);
}

void EncodedRidArray::Append(rid_t v) {
  if (encoding_ == RidSetEncoding::kRaw) {
    data_.push_back(v);
    ++size_;
    return;
  }
  if (encoding_ == RidSetEncoding::kPacked) {
    const uint64_t mask = (uint64_t{1} << width_) - 1;
    if (v != kInvalidRid && (v < base_ || uint64_t{v} - base_ >= mask)) {
      // Outside the frame: repack at the width the new value needs.
      std::vector<rid_t> all = Decode();
      all.push_back(v);
      *this = EncodeAs(all.data(), all.size(), RidSetEncoding::kPacked);
      return;
    }
    const size_t need = ((size_ + 1) * width_ + 63) / 64 + 1;
    if (words_.size() < need) words_.resize(need, 0);
    PutCode(size_, v == kInvalidRid ? mask : uint64_t{v} - base_);
    ++size_;
    return;
  }
  if (size_ == 0) {
    run_pos_.push_back(0);
    run_val_.push_back(v);
    ++size_;
    return;
  }
  const rid_t start = run_val_.back();
  const rid_t last =
      start == kInvalidRid
          ? kInvalidRid
          : start + static_cast<rid_t>(size_ - run_pos_.back() - 1);
  if (!ContinuesArrayRun(last, v)) {
    run_pos_.push_back(static_cast<uint32_t>(size_));
    run_val_.push_back(v);
  }
  ++size_;
}

std::vector<rid_t> EncodedRidArray::Decode() const {
  std::vector<rid_t> out(size_);
  ForEach([&out](size_t i, rid_t r) { out[i] = r; });
  return out;
}

}  // namespace smoke
