#include "lineage/store/lineage_store.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace smoke {

namespace {

/// Bytes of the kAdaptive array encoding of `s` (no overflow lists), from
/// one pass over its set positions: the runs, and the range of its rids.
size_t AdaptiveArrayBytesOf(const SparseRidArray& s) {
  size_t runs = 0, end = 0;  // `end`: one past the last position seen
  rid_t lo = kInvalidRid, hi = 0, prev = kInvalidRid;
  s.ForEachSet([&](rid_t pos, const rid_t* d, size_t) {
    if (pos > end) ++runs;  // the unset positions before `pos`
    if (pos > end || pos == 0 || d[0] != prev + 1) ++runs;
    end = pos + size_t{1};
    prev = d[0];
    lo = std::min(lo, prev);
    hi = std::max(hi, prev);
  });
  if (end < s.size()) ++runs;
  return AdaptiveArrayBytes(s.size(), runs, lo, hi);
}

/// Encodes a sparse form under a non-raw codec: as a 1:1 array when it has
/// no overflow lists, else as posting lists, one list per position. Under
/// kAdaptive no encoding larger than the sparse form is kept; nullopt
/// then says to keep the raw form. The array's size follows from its
/// stats; posting lists cost at least 9 bytes (offset and tag) per
/// position and a word per set one, and are built only below that bound.
std::optional<LineageIndex> EncodeSparse(const SparseRidArray& s,
                                         LineageCodec codec) {
  const bool adaptive = codec == LineageCodec::kAdaptive;
  if (s.num_overflow() == 0) {
    if (adaptive && s.MemoryBytes() <= AdaptiveArrayBytesOf(s)) {
      return std::nullopt;
    }
    return LineageIndex::FromEncodedArray(
        EncodedRidArray::Encode(s.ToArray(), codec));
  }
  const size_t postings_floor = (s.size() + 1) * sizeof(uint64_t) +
                                s.size() + s.num_valid() * sizeof(rid_t);
  if (adaptive && s.MemoryBytes() <= postings_floor) return std::nullopt;
  PostingsBuilder b(codec);
  for (rid_t i = 0; i < s.size(); ++i) {
    size_t n;
    const rid_t* d = s.Related(i, &n);
    b.AddList(d, n);
  }
  LineageIndex encoded = LineageIndex::FromEncodedPostings(b.Finish());
  if (adaptive && s.MemoryBytes() <= encoded.MemoryBytes()) {
    return std::nullopt;
  }
  return encoded;
}

}  // namespace

LineageIndex EncodeLineage(LineageIndex index, LineageCodec codec) {
  switch (index.kind()) {
    case LineageIndex::Kind::kNone:
      return index;
    case LineageIndex::Kind::kArray:
      if (codec == LineageCodec::kRaw) return index;
      return LineageIndex::FromEncodedArray(
          EncodedRidArray::Encode(std::move(index.mutable_array()), codec));
    case LineageIndex::Kind::kSparseArray: {
      if (codec == LineageCodec::kRaw) return index;
      std::optional<LineageIndex> e = EncodeSparse(index.sparse_array(), codec);
      if (e) return std::move(*e);
      return index;
    }
    case LineageIndex::Kind::kIndex:
      if (codec == LineageCodec::kRaw) return index;
      return LineageIndex::FromEncodedPostings(
          EncodedPostings::Encode(index.index(), codec));
    case LineageIndex::Kind::kEncodedArray: {
      // Re-encode through the raw form (encoded forms are immutable).
      LineageIndex raw =
          LineageIndex::FromArray(index.encoded_array().Decode());
      return EncodeLineage(std::move(raw), codec);
    }
    case LineageIndex::Kind::kEncodedIndex: {
      if (codec == LineageCodec::kRaw) {
        return LineageIndex::FromIndex(index.encoded_postings().Decode());
      }
      // Re-encode list-at-a-time: decoding the whole index to raw first
      // would spike transient memory to the raw footprint exactly when the
      // budget is under pressure (same pattern as PartitionedRidIndex::
      // Freeze).
      const EncodedPostings& ep = index.encoded_postings();
      PostingsBuilder b(codec);
      std::vector<rid_t> list;
      for (size_t i = 0; i < ep.num_lists(); ++i) {
        list.clear();
        ep.AppendList(i, &list);
        b.AddList(list.data(), list.size());
      }
      return LineageIndex::FromEncodedPostings(b.Finish());
    }
  }
  return index;
}

LineageIndex EncodeLineageCopy(const LineageIndex& index, LineageCodec codec) {
  switch (index.kind()) {
    case LineageIndex::Kind::kArray: {
      const RidArray& a = index.array();
      if (codec == LineageCodec::kRaw) return LineageIndex::FromArray(a);
      return LineageIndex::FromEncodedArray(
          EncodedRidArray::Encode(a.data(), a.size(), codec));
    }
    case LineageIndex::Kind::kSparseArray: {
      if (codec == LineageCodec::kRaw) return index;  // exact-size copy
      std::optional<LineageIndex> e = EncodeSparse(index.sparse_array(), codec);
      if (e) return std::move(*e);
      return index;
    }
    case LineageIndex::Kind::kIndex: {
      const RidIndex& in = index.index();
      if (codec != LineageCodec::kRaw) {
        return LineageIndex::FromEncodedPostings(
            EncodedPostings::Encode(in, codec));
      }
      // RidVec copies are exact-capacity.
      std::vector<RidVec> lists(in.size());
      for (size_t i = 0; i < in.size(); ++i) lists[i] = in.list(i);
      return LineageIndex::FromIndex(RidIndex::FromLists(std::move(lists)));
    }
    case LineageIndex::Kind::kNone:
    case LineageIndex::Kind::kEncodedArray:
    case LineageIndex::Kind::kEncodedIndex:
      break;
  }
  return EncodeLineage(index, codec);
}

void EncodeQueryLineage(QueryLineage* lineage, LineageCodec codec) {
  for (size_t i = 0; i < lineage->num_inputs(); ++i) {
    TableLineage& tl = lineage->mutable_input(i);
    tl.backward = EncodeLineage(std::move(tl.backward), codec);
    tl.forward = EncodeLineage(std::move(tl.forward), codec);
  }
}

void EvictQueryLineage(QueryLineage* lineage) {
  for (size_t i = 0; i < lineage->num_inputs(); ++i) {
    TableLineage& tl = lineage->mutable_input(i);
    tl.backward = LineageIndex();
    tl.forward = LineageIndex();
  }
  lineage->set_evicted(true);
}

void LineageMemoryTracker::Register(const std::string& name, size_t bytes,
                                    LineageCodec codec) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  total_ -= e.bytes;
  e.bytes = bytes;
  e.codec = codec;
  e.evicted = false;
  e.last_access = ++tick_;
  total_ += bytes;
}

void LineageMemoryTracker::Update(const std::string& name, size_t bytes,
                                  LineageCodec codec) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  total_ -= it->second.bytes;
  it->second.bytes = bytes;
  it->second.codec = codec;
  total_ += bytes;
}

void LineageMemoryTracker::MarkEvicted(const std::string& name,
                                       size_t residual_bytes) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  total_ -= it->second.bytes;
  it->second.bytes = residual_bytes;
  it->second.evicted = true;
  total_ += residual_bytes;
}

void LineageMemoryTracker::Release(const std::string& name) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  total_ -= it->second.bytes;
  entries_.erase(it);
}

void LineageMemoryTracker::Touch(const std::string& name) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  it->second.last_access = ++tick_;
}

bool LineageMemoryTracker::Coldest(
    const std::function<bool(const std::string&, const Entry&)>& pred,
    std::string* out) const {
  MutexLock lock(mu_);
  uint64_t best_tick = 0;
  bool found = false;
  for (const auto& [name, entry] : entries_) {
    if (!pred(name, entry)) continue;
    if (!found || entry.last_access < best_tick) {
      best_tick = entry.last_access;
      *out = name;
      found = true;
    }
  }
  return found;
}

void LineageMemoryTracker::SetBudget(size_t bytes) {
  MutexLock lock(mu_);
  budget_ = bytes;
}

size_t LineageMemoryTracker::budget() const {
  MutexLock lock(mu_);
  return budget_;
}

size_t LineageMemoryTracker::total_bytes() const {
  MutexLock lock(mu_);
  return total_;
}

LineageStoreStats LineageMemoryTracker::Stats() const {
  MutexLock lock(mu_);
  LineageStoreStats s;
  s.total_bytes = total_;
  s.budget_bytes = budget_;
  s.num_queries = entries_.size();
  for (const auto& [name, entry] : entries_) {
    if (entry.evicted) ++s.num_evicted;
    LineageStoreStats::QueryStats q;
    q.name = name;
    q.bytes = entry.bytes;
    q.codec = entry.codec;
    q.evicted = entry.evicted;
    q.last_access = entry.last_access;
    s.queries.push_back(std::move(q));
  }
  return s;
}

bool LineageMemoryTracker::Lookup(const std::string& name, Entry* out) const {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

}  // namespace smoke
