// The compressed lineage store: physical representation and memory
// accounting of all retained lineage.
//
// Capture stays write-optimized (raw RidVec/RidArray buffers — paper
// Section 3.1: resize cost dominates capture). At capture-finalize time the
// store re-encodes the composed end-to-end indexes under a pluggable codec
// (lineage/store/rid_codec.h) chosen per posting list; consumers evaluate
// traces over the encoded forms in-situ, decode-on-demand.
//
// The store also owns the lineage memory budget: a LineageMemoryTracker
// accounts bytes per retained query (surfaced as
// SmokeEngine::LineageMemoryStats()), and when the budget set by
// SmokeEngine::SetLineageBudget is exceeded the engine first
// re-encodes cold indexes adaptively and ultimately evicts them — evicted
// queries transparently fall back to the lazy-rescan trace strategy.
#ifndef SMOKE_LINEAGE_STORE_LINEAGE_STORE_H_
#define SMOKE_LINEAGE_STORE_LINEAGE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "lineage/query_lineage.h"
#include "lineage/store/rid_codec.h"

namespace smoke {

/// Re-encodes one finalized lineage index under `codec`. kRaw decodes back
/// to the raw forms (the identity on raw input); other policies encode —
/// already-encoded input is decoded first, so re-encoding under a different
/// policy is supported. kNone passes through.
LineageIndex EncodeLineage(LineageIndex index, LineageCodec codec);

/// Encodes a copy of `index` under `codec` in one pass over the source,
/// leaving the source as it is (the serving layer's snapshot publish reads
/// its builder's raw indexes in place). kRaw gives an exact-size raw copy.
LineageIndex EncodeLineageCopy(const LineageIndex& index, LineageCodec codec);

/// Applies EncodeLineage to every captured backward/forward index of
/// `lineage`.
void EncodeQueryLineage(QueryLineage* lineage, LineageCodec codec);

/// Drops every index of `lineage` (budget eviction). Table names/pointers
/// are kept so relation lookup still resolves — traces answer via the
/// lazy-rescan fallback afterwards.
void EvictQueryLineage(QueryLineage* lineage);

/// Point-in-time report of the lineage store, per retained query.
struct LineageStoreStats {
  struct QueryStats {
    std::string name;
    size_t bytes = 0;
    LineageCodec codec = LineageCodec::kRaw;
    bool evicted = false;
    uint64_t last_access = 0;  ///< LRU tick; higher = more recent
  };
  size_t total_bytes = 0;
  size_t budget_bytes = 0;  ///< 0 = unlimited
  size_t num_queries = 0;
  size_t num_evicted = 0;
  std::vector<QueryStats> queries;  ///< name order
};

/// \brief Per-retained-query lineage memory accounting with an LRU clock.
/// The engine updates entries at every store mutation (retain, re-encode,
/// evict, drop) and bumps the clock on every trace access.
///
/// Internally synchronized: Touch() runs inside the engine's *const*
/// lookup paths, which concurrent readers may share — LRU bookkeeping must
/// not turn read-only trace APIs into data races. That invariant is
/// machine-checked: every field is SMOKE_GUARDED_BY(mu_), so a code path
/// that reaches the tick map without the lock cannot compile under Clang.
class LineageMemoryTracker {
 public:
  struct Entry {
    size_t bytes = 0;
    LineageCodec codec = LineageCodec::kRaw;
    bool evicted = false;
    uint64_t last_access = 0;
  };

  void Register(const std::string& name, size_t bytes, LineageCodec codec)
      SMOKE_EXCLUDES(mu_);

  /// Updates bytes/codec of an existing entry (re-encoding). Unknown names
  /// are ignored.
  void Update(const std::string& name, size_t bytes, LineageCodec codec)
      SMOKE_EXCLUDES(mu_);

  /// Marks `name` evicted with `residual_bytes` remaining (normally 0).
  void MarkEvicted(const std::string& name, size_t residual_bytes)
      SMOKE_EXCLUDES(mu_);

  void Release(const std::string& name) SMOKE_EXCLUDES(mu_);

  /// Bumps the LRU clock of `name` (trace access). Unknown names ignored.
  void Touch(const std::string& name) SMOKE_EXCLUDES(mu_);

  void SetBudget(size_t bytes) SMOKE_EXCLUDES(mu_);
  size_t budget() const SMOKE_EXCLUDES(mu_);
  size_t total_bytes() const SMOKE_EXCLUDES(mu_);

  /// The least-recently-accessed entry satisfying `pred`; false when none.
  /// `pred` runs under the tracker's lock: it must not call back into this
  /// tracker (SMOKE_EXCLUDES would not catch that through std::function).
  bool Coldest(
      const std::function<bool(const std::string&, const Entry&)>& pred,
      std::string* out) const SMOKE_EXCLUDES(mu_);

  LineageStoreStats Stats() const SMOKE_EXCLUDES(mu_);

  /// Copies the entry registered under `name` (the cost model's per-query
  /// store statistics); false when unknown.
  bool Lookup(const std::string& name, Entry* out) const SMOKE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ SMOKE_GUARDED_BY(mu_);
  size_t total_ SMOKE_GUARDED_BY(mu_) = 0;
  size_t budget_ SMOKE_GUARDED_BY(mu_) = 0;
  uint64_t tick_ SMOKE_GUARDED_BY(mu_) = 0;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_STORE_LINEAGE_STORE_H_
