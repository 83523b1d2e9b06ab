// The concurrent multi-session serving core (ROADMAP "Concurrent
// multi-session serving layer"; "Provenance for Interactive Visualizations"
// frames the workload: many users brushing linked views concurrently over
// shared retained state).
//
// SmokeEngine is a single-caller library: one mutator or reader at a time,
// and ReplaceTable/DropTable refuse outright while any retained query
// borrows the data. ServeCore layers a serving discipline on top:
//
//  - Snapshot/epoch layer. The unit of sharing is an immutable
//    ServeSnapshot: one SmokeEngine holding a version of every base table
//    plus the retained view results over exactly those tables. Writers
//    (ReplaceTable / AppendRows) build the next version off to the side,
//    publish it with one atomic pointer swap, and retire the old version
//    through epoch-based reclamation (serve/epoch.h) — readers pin an
//    epoch for the duration of an access, and a retired version is freed
//    only when its last possible reader has drained. Writers never block
//    brushes; brushes never dangle.
//
//  - Raw builder, encoded snapshots. Two copies of every view's lineage
//    serve two roles. A persistent builder engine captures each view raw
//    (write-optimized, paper Section 3.1) with refresh state, so appends
//    fold into it in place. Each published snapshot holds lineage encoded
//    in one pass straight from the builder's raw indexes under
//    ServeOptions::view_capture.lineage_codec (adaptive by default:
//    Elias-Fano postings and bit-packed 1:1 arrays for histogram views),
//    sized for what a brush reads.
//
//  - Session manager. ServeSession (serve/session.h) handles carry
//    per-session retained-trace handles (each pinning the snapshot version
//    it was traced against), a per-session lineage-budget slice enforced
//    through the PR 5 LineageMemoryTracker, and session-scoped cleanup on
//    close.
//
//  - Admission tier. One TieredScheduler (serve/admission.h) is shared by
//    everything: brushes run as interactive jobs, snapshot rebuilds run
//    their capture morsels at batch priority, so interactive trace work
//    preempts batch captures at morsel granularity.
//
// Threading contract: DefineView/CreateTable/Start run before serving;
// afterwards any number of session threads may brush/trace concurrently
// with at most writer-serialized ReplaceTable/AppendRows calls. ServeCore
// must outlive its sessions; close sessions before destroying the core
// (the destructor closes stragglers, but a session mid-call is a race).
#ifndef SMOKE_SERVE_SERVE_CORE_H_
#define SMOKE_SERVE_SERVE_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/smoke_engine.h"
#include "serve/admission.h"
#include "serve/epoch.h"

namespace smoke {

class ServeSession;

/// \brief One immutable published version: a private engine holding this
/// version's base tables and the retained view plans executed over them.
/// Never mutated after Build; any number of readers share it concurrently
/// (trace paths are const; the engine's LRU tracker is internally
/// synchronized).
struct ServeSnapshot {
  ServeSnapshot(uint64_t v, std::atomic<int64_t>* live)
      : version(v), live_(live) {
    live_->fetch_add(1, std::memory_order_relaxed);
  }
  ~ServeSnapshot() { live_->fetch_sub(1, std::memory_order_relaxed); }
  SMOKE_DISALLOW_COPY_AND_ASSIGN(ServeSnapshot);

  const uint64_t version;
  SmokeEngine engine;
  std::vector<std::string> views;  ///< retained view names, definition order

 private:
  std::atomic<int64_t>* live_;  ///< core's live-snapshot gauge (tests assert
                                ///< epoch reclamation drives this back down)
};

struct ServeOptions {
  ServeOptions() { view_capture.lineage_codec = LineageCodec::kAdaptive; }

  /// Worker threads of the shared admission pool (submitters co-execute,
  /// so effective parallelism is num_threads + 1).
  int num_threads = 3;
  /// Capture configuration for view execution — pruning, morsel size, and
  /// the codec of the published snapshots' lineage (kAdaptive by default;
  /// the builder always captures raw). mode/scheduler/num_threads are
  /// overridden: views always capture kInject with morsels routed at batch
  /// priority.
  CaptureOptions view_capture = CaptureOptions::Inject();
};

/// \brief Versioned, multi-session serving facade over SmokeEngine.
class ServeCore {
 public:
  /// `relation` is the shared brushing relation (the lineage endpoint every
  /// view must capture on, as in PlanCrossfilter).
  explicit ServeCore(std::string relation, ServeOptions options = {});
  ~ServeCore();
  SMOKE_DISALLOW_COPY_AND_ASSIGN(ServeCore);

  // ---- definition phase (before Start) ----

  /// Registers a base table; its current contents seed snapshot version 1.
  Status CreateTable(const std::string& name, Table table)
      SMOKE_EXCLUDES(writer_mu_);

  /// Builds this view's plan against the tables of `engine` (borrow them
  /// via SmokeEngine::GetTable — each snapshot rebinds the plan to its own
  /// table versions).
  using ViewDef = std::function<Status(const SmokeEngine& engine,
                                       LogicalPlan* plan)>;

  /// Declares a view re-executed into every snapshot version. Views must
  /// capture backward and forward lineage on the brushing relation.
  Status DefineView(const std::string& name, ViewDef def)
      SMOKE_EXCLUDES(writer_mu_);

  /// Seeds the builder and publishes snapshot version 1 from it. Serving
  /// calls (sessions, writers) are valid after this returns OK.
  Status Start() SMOKE_EXCLUDES(writer_mu_);

  // ---- writers (serialized among themselves; never block readers) ----

  /// Installs new contents for `name`: re-seeds the builder over the new
  /// version off to the side, publishes the result atomically, and retires
  /// the superseded snapshot via epoch reclamation. Concurrent brushes keep
  /// reading the old version until they drain.
  Status ReplaceTable(const std::string& name, Table table)
      SMOKE_EXCLUDES(writer_mu_);

  /// Appends `delta`'s rows to `name` and publishes a new version — but,
  /// unlike ReplaceTable, builds it incrementally: the builder folds the
  /// delta through every view's retained operator DAG in place
  /// (src/refresh/), and the new snapshot is published by encoding the
  /// refreshed results — no view re-executes. Views the delta pass cannot
  /// maintain (dim-side appends, non-refreshable shapes) take a scoped
  /// rebuild inside the builder with the reason recorded in that batch's
  /// RefreshStats; if the builder path fails altogether the call re-seeds
  /// the builder from scratch and reports one entry with the reason.
  /// Readers are never blocked either way.
  Status AppendRows(const std::string& name, const Table& delta)
      SMOKE_EXCLUDES(writer_mu_);

  /// Per-view RefreshStats of the most recent AppendRows batch (empty
  /// before the first append). A full-rebuild fallback reports one entry
  /// with incremental=false and the reason.
  std::vector<RefreshStats> LastRefreshStats() const
      SMOKE_EXCLUDES(writer_mu_);

  // ---- readers ----

  /// \brief A pinned view of the current snapshot. The snapshot stays
  /// valid — even across concurrent ReplaceTable calls — until the ref is
  /// destroyed. Hold briefly (per brush) or deliberately (a retained trace
  /// pinning its version); every live pin delays reclamation of later
  /// retired versions.
  struct SnapshotRef {
    const ServeSnapshot* snapshot = nullptr;
    EpochManager::Guard guard;
    uint64_t version() const { return snapshot->version; }
  };

  /// Pins and returns the current snapshot. Thread-safe.
  SnapshotRef AcquireSnapshot() const;

  /// Version of the currently published snapshot.
  uint64_t CurrentVersion() const;

  // ---- sessions ----

  /// Opens a session with a lineage-budget slice of `budget_bytes` (0 =
  /// unlimited). Fails on a duplicate live session id. The returned handle stays valid until
  /// CloseSession / core destruction.
  Status OpenSession(const std::string& session_id,
                     std::shared_ptr<ServeSession>* out,
                     size_t budget_bytes = 0) SMOKE_EXCLUDES(sessions_mu_);

  /// Closes the session: drops its retained traces (releasing snapshot
  /// pins and budget accounting) and unregisters it.
  Status CloseSession(const std::string& session_id)
      SMOKE_EXCLUDES(sessions_mu_);

  size_t NumSessions() const SMOKE_EXCLUDES(sessions_mu_);

  /// Aggregate retained-trace lineage bytes across live sessions (tests
  /// assert this returns to baseline when sessions close).
  size_t SessionLineageBytes() const SMOKE_EXCLUDES(sessions_mu_);

  // ---- introspection ----

  /// Live snapshot versions (published + retired-but-pinned). Settles back
  /// to 1 when readers drain — the epoch-reclamation gauge.
  int64_t LiveSnapshots() const {
    return live_snapshots_.load(std::memory_order_relaxed);
  }
  EpochManager::Stats EpochStats() const { return epochs_.GetStats(); }
  /// The incremental builder's lineage store: every view retained raw
  /// (empty when no builder is seeded).
  LineageStoreStats BuilderLineageStats() const SMOKE_EXCLUDES(writer_mu_);
  TieredScheduler::Stats AdmissionStats() const { return pool_.GetStats(); }

  const std::string& relation() const { return relation_; }

 private:
  friend class ServeSession;

  TieredScheduler& pool() { return pool_; }

  /// Swaps `snap` in as current and retires the predecessor. Writer-only
  /// (the atomic swap itself needs no lock, but unserialized publishes
  /// would race version retirement order).
  void Publish(std::unique_ptr<ServeSnapshot> snap)
      SMOKE_REQUIRES(writer_mu_);

  /// Seeds a fresh builder — master-table copies plus every view executed
  /// raw with retain_refresh_state — and publishes the next version from
  /// it. On failure the builder is dropped and nothing is published.
  Status RebuildAndPublish() SMOKE_REQUIRES(writer_mu_);

  /// Builds the next snapshot from the builder: copies of the master
  /// tables, and each view's result with its lineage encoded under the
  /// serving codec and rebound onto those copies; views whose results
  /// cannot be cloned re-execute against the snapshot's tables.
  Status BuildSnapshotFromBuilder(uint64_t version,
                                  std::unique_ptr<ServeSnapshot>* out)
      SMOKE_REQUIRES(writer_mu_);

  /// view_capture with the serving overrides: kInject, finalized, morsels
  /// at batch priority on the shared pool.
  CaptureOptions BuildOptions();

  const std::string relation_;
  const ServeOptions options_;

  TieredScheduler pool_;
  TieredScheduler::Lease batch_lease_;

  mutable EpochManager epochs_;
  std::atomic<const ServeSnapshot*> current_{nullptr};
  std::atomic<int64_t> live_snapshots_{0};

  /// Serializes Start/ReplaceTable/AppendRows and guards the master copies.
  mutable Mutex writer_mu_;
  /// master copies (next version)
  std::map<std::string, Table> tables_ SMOKE_GUARDED_BY(writer_mu_);
  /// Persistent incremental builder: holds its own table copies plus every
  /// view retained raw with refresh state. Seeded by Start and
  /// ReplaceTable; null only after a failed re-seed, and re-seeded by the
  /// next AppendRows.
  std::unique_ptr<SmokeEngine> builder_ SMOKE_GUARDED_BY(writer_mu_);
  std::vector<RefreshStats> last_refresh_stats_ SMOKE_GUARDED_BY(writer_mu_);
  /// definition order
  std::vector<std::pair<std::string, ViewDef>> views_
      SMOKE_GUARDED_BY(writer_mu_);
  uint64_t next_version_ SMOKE_GUARDED_BY(writer_mu_) = 1;
  bool started_ SMOKE_GUARDED_BY(writer_mu_) = false;

  mutable Mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<ServeSession>> sessions_
      SMOKE_GUARDED_BY(sessions_mu_);
};

}  // namespace smoke

#endif  // SMOKE_SERVE_SERVE_CORE_H_
