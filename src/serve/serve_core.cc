#include "serve/serve_core.h"

#include <unordered_map>
#include <utility>

#include "refresh/refresh.h"
#include "serve/session.h"

namespace smoke {

ServeCore::ServeCore(std::string relation, ServeOptions options)
    : relation_(std::move(relation)),
      options_(options),
      pool_(options.num_threads),
      batch_lease_(&pool_, TaskClass::kBatch) {}

ServeCore::~ServeCore() {
  // Close stragglers so their retained traces release their pins...
  {
    MutexLock lock(sessions_mu_);
    for (auto& [id, session] : sessions_) {
      (void)id;
      session->Close();
    }
    sessions_.clear();
  }
  // ...then retire the published snapshot and drain everything while the
  // pool and masters are still alive.
  const ServeSnapshot* cur = current_.exchange(nullptr);
  if (cur != nullptr) epochs_.Retire([cur] { delete cur; });
  epochs_.Reclaim();
}

Status ServeCore::CreateTable(const std::string& name, Table table) {
  MutexLock lock(writer_mu_);
  if (started_) {
    return Status::InvalidArgument(
        "CreateTable('" + name + "') after Start(); serving cores have a "
        "fixed schema — use ReplaceTable/AppendRows");
  }
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  tables_.emplace(name, std::move(table));
  return Status::OK();
}

Status ServeCore::DefineView(const std::string& name, ViewDef def) {
  MutexLock lock(writer_mu_);
  if (started_) {
    return Status::InvalidArgument("DefineView('" + name +
                                   "') after Start()");
  }
  for (const auto& [vname, vdef] : views_) {
    (void)vdef;
    if (vname == name) return Status::AlreadyExists("view '" + name + "'");
  }
  views_.emplace_back(name, std::move(def));
  return Status::OK();
}

Status ServeCore::Start() {
  MutexLock lock(writer_mu_);
  if (started_) return Status::InvalidArgument("Start() called twice");
  if (tables_.empty()) return Status::InvalidArgument("no tables registered");
  if (tables_.count(relation_) == 0) {
    return Status::InvalidArgument("brushing relation '" + relation_ +
                                   "' is not a registered table");
  }
  if (views_.empty()) return Status::InvalidArgument("no views defined");
  SMOKE_RETURN_NOT_OK(RebuildAndPublish());
  started_ = true;
  return Status::OK();
}

Status ServeCore::ReplaceTable(const std::string& name, Table table) {
  MutexLock lock(writer_mu_);
  if (!started_) return Status::InvalidArgument("ReplaceTable before Start()");
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  if (table.num_columns() != it->second.num_columns()) {
    return Status::InvalidArgument(
        "ReplaceTable('" + name + "'): column count mismatch");
  }
  // Build the next version off to the side — readers keep brushing the
  // current snapshot, untouched, until the publish swap below.
  Table saved = std::move(it->second);
  it->second = std::move(table);
  if (Status st = RebuildAndPublish(); !st.ok()) {
    it->second = std::move(saved);  // masters stay consistent on failure
    return st;
  }
  return Status::OK();
}

Status ServeCore::AppendRows(const std::string& name, const Table& delta) {
  MutexLock lock(writer_mu_);
  if (!started_) return Status::InvalidArgument("AppendRows before Start()");
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  if (delta.num_columns() != it->second.num_columns()) {
    return Status::InvalidArgument(
        "AppendRows('" + name + "'): column count mismatch");
  }
  Table next = it->second;  // copy: failure must not corrupt the master
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    next.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  Table saved = std::move(it->second);
  it->second = std::move(next);

  // Incremental path: fold the delta through the builder's retained views
  // in place and publish an encoded copy — the per-version capture work
  // is O(delta), not O(table). Any failure along the way re-seeds the
  // builder from the masters, which already carry the delta.
  std::string fallback;
  std::vector<RefreshStats> stats;
  if (builder_ == nullptr) {
    fallback = "incremental builder unavailable; builder re-seeded";
  } else if (Status st = builder_->AppendRows(name, delta, &stats); !st.ok()) {
    fallback = "builder append failed (" + st.ToString() +
               "); builder re-seeded";
  } else {
    std::unique_ptr<ServeSnapshot> snap;
    if (st = BuildSnapshotFromBuilder(next_version_, &snap); st.ok()) {
      last_refresh_stats_ = std::move(stats);
      next_version_++;
      Publish(std::move(snap));
      return Status::OK();
    }
    fallback = "snapshot publish failed (" + st.ToString() +
               "); builder re-seeded";
  }
  if (Status st = RebuildAndPublish(); !st.ok()) {
    it->second = std::move(saved);
    return st;
  }
  last_refresh_stats_.assign(1, RefreshStats{});
  last_refresh_stats_[0].table = name;
  last_refresh_stats_[0].delta_rows = delta.num_rows();
  last_refresh_stats_[0].fallback_reason = std::move(fallback);
  return Status::OK();
}

LineageStoreStats ServeCore::BuilderLineageStats() const {
  MutexLock lock(writer_mu_);
  return builder_ == nullptr ? LineageStoreStats{}
                             : builder_->LineageMemoryStats();
}

std::vector<RefreshStats> ServeCore::LastRefreshStats() const {
  MutexLock lock(writer_mu_);
  return last_refresh_stats_;
}

Status ServeCore::RebuildAndPublish() {
  builder_.reset();
  auto builder = std::make_unique<SmokeEngine>();
  for (const auto& [name, table] : tables_) {
    SMOKE_RETURN_NOT_OK(builder->CreateTable(name, table));  // copy
  }
  // Raw capture with refresh state: deltas then append in place. View
  // captures run at batch priority with full morsel parallelism, so an
  // interactive brush arriving mid-build jumps the queue at the next
  // morsel boundary.
  CaptureOptions opts = BuildOptions();
  opts.retain_refresh_state = true;
  opts.lineage_codec = LineageCodec::kRaw;
  for (const auto& [vname, def] : views_) {
    LogicalPlan plan;
    SMOKE_RETURN_NOT_OK(def(*builder, &plan));
    SMOKE_RETURN_NOT_OK(builder->ExecutePlan(vname, plan, opts));
  }
  builder_ = std::move(builder);
  std::unique_ptr<ServeSnapshot> snap;
  if (Status st = BuildSnapshotFromBuilder(next_version_, &snap); !st.ok()) {
    builder_.reset();
    return st;
  }
  next_version_++;
  Publish(std::move(snap));
  return Status::OK();
}

CaptureOptions ServeCore::BuildOptions() {
  CaptureOptions opts = options_.view_capture;
  opts.mode = CaptureMode::kInject;
  opts.defer_plan_finalize = false;  // brushes need finalized indexes
  opts.scheduler = &batch_lease_;
  opts.num_threads = batch_lease_.num_threads();
  return opts;
}

Status ServeCore::BuildSnapshotFromBuilder(
    uint64_t version, std::unique_ptr<ServeSnapshot>* out) {
  auto snap = std::make_unique<ServeSnapshot>(version, &live_snapshots_);
  std::unordered_map<const Table*, const Table*> rebind;
  for (const auto& [name, table] : tables_) {
    SMOKE_RETURN_NOT_OK(snap->engine.CreateTable(name, table));  // copy
    const Table* bt = nullptr;
    const Table* st = nullptr;
    SMOKE_RETURN_NOT_OK(builder_->GetTable(name, &bt));
    SMOKE_RETURN_NOT_OK(snap->engine.GetTable(name, &st));
    rebind[bt] = st;
  }
  // Encode every view's copy as one batch-priority task each: a brush
  // arriving mid-publish still admits first.
  const LineageCodec codec = options_.view_capture.lineage_codec;
  const size_t num_views = views_.size();
  std::vector<const PlanResult*> built(num_views);
  for (size_t v = 0; v < num_views; ++v) {
    SMOKE_RETURN_NOT_OK(builder_->GetPlanResult(views_[v].first, &built[v]));
  }
  std::vector<PlanResult> clones(num_views);
  std::vector<Status> cloned(num_views);
  batch_lease_.ParallelFor(num_views, [&](size_t v, size_t) {
    cloned[v] = ClonePlanResultForServe(*built[v], rebind, codec, &clones[v]);
  });
  for (size_t v = 0; v < num_views; ++v) {
    const auto& [vname, def] = views_[v];
    if (cloned[v].ok()) {
      SMOKE_RETURN_NOT_OK(
          snap->engine.AdoptRetainedPlan(vname, std::move(clones[v]), codec));
    } else {
      // Results the clone contract excludes (SPJA block artifacts)
      // re-execute against the snapshot's tables.
      LogicalPlan plan;
      SMOKE_RETURN_NOT_OK(def(snap->engine, &plan));
      SMOKE_RETURN_NOT_OK(
          snap->engine.ExecutePlan(vname, plan, BuildOptions()));
    }
    const PlanResult* pr = nullptr;
    SMOKE_RETURN_NOT_OK(snap->engine.GetPlanResult(vname, &pr));
    const int rel = pr->lineage.FindInput(relation_);
    if (rel < 0 ||
        pr->lineage.input(static_cast<size_t>(rel)).backward.empty() ||
        pr->lineage.input(static_cast<size_t>(rel)).forward.empty()) {
      return Status::InvalidArgument(
          "view '" + vname +
          "' must capture backward and forward lineage on '" + relation_ +
          "'");
    }
    snap->views.push_back(vname);
  }
  *out = std::move(snap);
  return Status::OK();
}

void ServeCore::Publish(std::unique_ptr<ServeSnapshot> snap) {
  const ServeSnapshot* old =
      current_.exchange(snap.release(), std::memory_order_acq_rel);
  if (old != nullptr) {
    // Readers pinned before this point may still hold `old`; the epoch
    // layer frees it when the last of them drains.
    epochs_.Retire([old] { delete old; });
  }
}

ServeCore::SnapshotRef ServeCore::AcquireSnapshot() const {
  SnapshotRef ref;
  // Pin strictly before the load: a snapshot retired after the pin is by
  // construction not reclaimable until this guard releases, so the loaded
  // pointer cannot dangle.
  ref.guard = epochs_.Pin();
  ref.snapshot = current_.load(std::memory_order_acquire);
  SMOKE_CHECK(ref.snapshot != nullptr);  // valid only after Start()
  return ref;
}

uint64_t ServeCore::CurrentVersion() const {
  return AcquireSnapshot().version();
}

Status ServeCore::OpenSession(const std::string& session_id,
                              std::shared_ptr<ServeSession>* out,
                              size_t budget_bytes) {
  if (current_.load(std::memory_order_acquire) == nullptr) {
    return Status::InvalidArgument("OpenSession before Start()");
  }
  MutexLock lock(sessions_mu_);
  if (sessions_.count(session_id) != 0) {
    return Status::AlreadyExists("session '" + session_id + "'");
  }
  std::shared_ptr<ServeSession> session(
      new ServeSession(this, session_id, budget_bytes));
  sessions_.emplace(session_id, session);
  *out = std::move(session);
  return Status::OK();
}

Status ServeCore::CloseSession(const std::string& session_id) {
  std::shared_ptr<ServeSession> session;
  {
    MutexLock lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("session '" + session_id + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  session->Close();  // outside sessions_mu_: releasing pins may reclaim
  return Status::OK();
}

size_t ServeCore::NumSessions() const {
  MutexLock lock(sessions_mu_);
  return sessions_.size();
}

size_t ServeCore::SessionLineageBytes() const {
  MutexLock lock(sessions_mu_);
  size_t total = 0;
  for (const auto& [id, session] : sessions_) {
    (void)id;
    total += session->retained_bytes();
  }
  return total;
}

}  // namespace smoke
