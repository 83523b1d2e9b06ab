// Per-client session handles over the serving core (serve/serve_core.h).
//
// A ServeSession is the unit of isolation in the serving layer: it runs
// brushes and traces at interactive admission priority against whatever
// snapshot is current at call time, keeps named retained-trace handles —
// each pinning the snapshot version it was traced against, so a handle
// stays valid across any number of ReplaceTable calls — and enforces a
// per-session lineage-budget slice through its own LineageMemoryTracker:
// one session retaining heavy traces evicts its *own* coldest handles, not
// its neighbors'. Closing the session drops every handle, releasing the
// snapshot pins (which may trigger epoch reclamation of retired versions)
// and returning the budget accounting to baseline.
//
// Thread safety: a session handle may be shared between threads (all
// methods lock internally), but the intended shape is one session per
// client thread, many sessions per core.
#ifndef SMOKE_SERVE_SESSION_H_
#define SMOKE_SERVE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/plan_crossfilter.h"
#include "common/mutex.h"
#include "common/status.h"
#include "serve/serve_core.h"

namespace smoke {

/// \brief One client's handle into a ServeCore. Created by
/// ServeCore::OpenSession; valid until CloseSession / core destruction.
class ServeSession {
 public:
  SMOKE_DISALLOW_COPY_AND_ASSIGN(ServeSession);

  const std::string& id() const { return id_; }

  /// One linked brush, all views, one snapshot. `snapshot_version` names
  /// the version every entry of `views` was computed against — concurrent
  /// writers never bleed into a brush.
  struct BrushResult {
    uint64_t snapshot_version = 0;
    std::map<std::string, LinkedBrush> views;  ///< every view except `view`
  };

  /// Brushes output row `out_rid` of `view` into every other view of the
  /// current snapshot: one BrushLinkedPlans probe of the snapshot's
  /// retained view indexes through the core's shared relation. Admitted as
  /// one interactive-class job on the core's admission pool, ahead of any
  /// queued batch capture work.
  Status Brush(const std::string& view, rid_t out_rid, BrushResult* out)
      SMOKE_EXCLUDES(mu_);

  /// Traces `out_rids` of `view` backward to the shared relation on the
  /// current snapshot and retains the result under `handle`. The handle
  /// pins its snapshot version (a retired version stays alive while any
  /// handle references it) and charges the session's budget slice with the
  /// trace's lineage + row bytes; the coldest other handles are evicted if
  /// the slice overflows. Fails with InvalidArgument when the trace alone
  /// exceeds the slice.
  Status RetainBackwardTrace(const std::string& handle,
                             const std::string& view,
                             const std::vector<rid_t>& out_rids)
      SMOKE_EXCLUDES(mu_);

  /// Looks up a retained trace (bumps its LRU tick). The pointer stays
  /// valid until the handle is dropped, evicted by the budget, or the
  /// session closes. `snapshot_version`, when non-null, receives the
  /// version the trace was computed against.
  Status GetRetainedTrace(const std::string& handle, const TraceResult** out,
                          uint64_t* snapshot_version = nullptr) const
      SMOKE_EXCLUDES(mu_);

  /// Drops one retained trace, releasing its snapshot pin and accounting.
  Status DropRetainedTrace(const std::string& handle) SMOKE_EXCLUDES(mu_);

  std::vector<std::string> RetainedTraceNames() const SMOKE_EXCLUDES(mu_);

  /// Retained-trace accounting for this session's slice (budget_bytes = the
  /// slice; 0 = unlimited).
  LineageStoreStats LineageStats() const SMOKE_EXCLUDES(mu_);
  size_t retained_bytes() const SMOKE_EXCLUDES(mu_);
  size_t budget_bytes() const { return budget_; }

  struct SessionStats {
    uint64_t brushes = 0;
    double total_brush_ms = 0;
    double max_brush_ms = 0;
    size_t retained_traces = 0;
    size_t retained_bytes = 0;
    uint64_t traces_evicted = 0;       ///< budget-slice evictions
    uint64_t last_snapshot_version = 0;  ///< version of the latest brush
    bool closed = false;
  };
  SessionStats GetStats() const SMOKE_EXCLUDES(mu_);

  /// Drops every retained trace (releasing pins and accounting) and marks
  /// the session closed; further Brush/Retain calls fail. Idempotent.
  /// ServeCore::CloseSession calls this and unregisters the handle.
  void Close() SMOKE_EXCLUDES(mu_);

 private:
  friend class ServeCore;

  ServeSession(ServeCore* core, std::string id, size_t budget_bytes)
      : core_(core), id_(std::move(id)), budget_(budget_bytes) {
    tracker_.SetBudget(budget_);
  }

  struct RetainedTrace {
    TraceResult result;
    uint64_t version = 0;          ///< snapshot it was traced against
    ServeCore::SnapshotRef ref;    ///< keeps that snapshot alive
  };

  /// Evicts coldest handles (except `keep`) until the slice fits.
  void EnforceSliceLocked(const std::string& keep) SMOKE_REQUIRES(mu_);

  ServeCore* const core_;
  const std::string id_;
  const size_t budget_;  ///< slice in bytes; 0 = unlimited

  mutable Mutex mu_;
  /// mutable: GetRetainedTrace is const but bumps the LRU clock. The
  /// tracker is itself internally synchronized; mu_ additionally keeps it
  /// consistent with retained_ (evictions mutate both).
  mutable LineageMemoryTracker tracker_ SMOKE_GUARDED_BY(mu_);
  std::map<std::string, RetainedTrace> retained_ SMOKE_GUARDED_BY(mu_);
  uint64_t brushes_ SMOKE_GUARDED_BY(mu_) = 0;
  double total_brush_ms_ SMOKE_GUARDED_BY(mu_) = 0;
  double max_brush_ms_ SMOKE_GUARDED_BY(mu_) = 0;
  uint64_t traces_evicted_ SMOKE_GUARDED_BY(mu_) = 0;
  uint64_t last_snapshot_version_ SMOKE_GUARDED_BY(mu_) = 0;
  bool closed_ SMOKE_GUARDED_BY(mu_) = false;
};

}  // namespace smoke

#endif  // SMOKE_SERVE_SESSION_H_
