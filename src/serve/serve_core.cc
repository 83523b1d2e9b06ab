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
  std::unique_ptr<ServeSnapshot> snap;
  SMOKE_RETURN_NOT_OK(BuildSnapshot(next_version_, &snap));
  next_version_++;
  Publish(std::move(snap));
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
  // Replacement invalidates every watermark the incremental builder keeps
  // (rids into the old rows): drop it, the next append re-seeds.
  builder_.reset();
  std::unique_ptr<ServeSnapshot> snap;
  Status st = BuildSnapshot(next_version_, &snap);
  if (!st.ok()) {
    it->second = std::move(saved);  // masters stay consistent on failure
    return st;
  }
  next_version_++;
  Publish(std::move(snap));
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

  // Incremental path: keep a persistent builder engine whose retained views
  // carry refresh state, fold the delta through them in place, and publish
  // by cloning — the expensive per-version work becomes O(delta), not
  // O(table). Any failure along the way drops the builder and falls through
  // to the always-correct full rebuild below.
  if (builder_ == nullptr) {
    if (Status st = SeedBuilder(); !st.ok()) builder_.reset();
  }
  if (builder_ != nullptr) {
    std::vector<RefreshStats> stats;
    Status st = builder_->AppendRows(name, delta, &stats);
    if (st.ok()) {
      Table saved = std::move(it->second);
      it->second = std::move(next);
      std::unique_ptr<ServeSnapshot> snap;
      st = BuildSnapshotFromBuilder(next_version_, &snap);
      if (st.ok()) {
        last_refresh_stats_ = std::move(stats);
        next_version_++;
        Publish(std::move(snap));
        return Status::OK();
      }
      // Clone-publish failed: masters already carry the delta (correct),
      // so rebuild the snapshot from scratch; restore on total failure.
      builder_.reset();
      st = BuildSnapshot(next_version_, &snap);
      if (!st.ok()) {
        it->second = std::move(saved);
        return st;
      }
      last_refresh_stats_.assign(1, RefreshStats{});
      last_refresh_stats_[0].table = name;
      last_refresh_stats_[0].delta_rows = delta.num_rows();
      last_refresh_stats_[0].fallback_reason =
          "builder clone-publish failed; full snapshot rebuild";
      next_version_++;
      Publish(std::move(snap));
      return Status::OK();
    }
    builder_.reset();  // refused or failed mid-append: state is suspect
  }

  Table saved = std::move(it->second);
  it->second = std::move(next);
  std::unique_ptr<ServeSnapshot> snap;
  Status st = BuildSnapshot(next_version_, &snap);
  if (!st.ok()) {
    it->second = std::move(saved);
    return st;
  }
  last_refresh_stats_.assign(1, RefreshStats{});
  last_refresh_stats_[0].table = name;
  last_refresh_stats_[0].delta_rows = delta.num_rows();
  last_refresh_stats_[0].fallback_reason =
      "incremental builder unavailable; full snapshot rebuild";
  next_version_++;
  Publish(std::move(snap));
  return Status::OK();
}

std::vector<RefreshStats> ServeCore::LastRefreshStats() const {
  MutexLock lock(writer_mu_);
  return last_refresh_stats_;
}

Status ServeCore::SeedBuilder() {
  auto builder = std::make_unique<SmokeEngine>();
  for (const auto& [name, table] : tables_) {
    SMOKE_RETURN_NOT_OK(builder->CreateTable(name, table));  // copy
  }
  CaptureOptions opts = options_.view_capture;
  opts.mode = CaptureMode::kInject;
  opts.defer_plan_finalize = false;
  opts.retain_refresh_state = true;
  opts.scheduler = &batch_lease_;
  opts.num_threads = batch_lease_.num_threads();
  for (const auto& [vname, def] : views_) {
    LogicalPlan plan;
    SMOKE_RETURN_NOT_OK(def(*builder, &plan));
    SMOKE_RETURN_NOT_OK(builder->ExecutePlan(vname, plan, opts));
  }
  builder_ = std::move(builder);
  return Status::OK();
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
  const LineageCodec codec = options_.view_capture.lineage_codec;
  for (const auto& [vname, def] : views_) {
    const PlanResult* built = nullptr;
    SMOKE_RETURN_NOT_OK(builder_->GetPlanResult(vname, &built));
    PlanResult clone;
    if (ClonePlanResultForServe(*built, rebind, &clone).ok()) {
      SMOKE_RETURN_NOT_OK(
          snap->engine.AdoptRetainedPlan(vname, std::move(clone), codec));
    } else {
      // Results the clone contract excludes (deferred capture, SPJA block
      // artifacts) re-execute against the snapshot's tables, as in the
      // full build.
      CaptureOptions opts = options_.view_capture;
      opts.mode = CaptureMode::kInject;
      opts.defer_plan_finalize = false;
      opts.scheduler = &batch_lease_;
      opts.num_threads = batch_lease_.num_threads();
      LogicalPlan plan;
      SMOKE_RETURN_NOT_OK(def(snap->engine, &plan));
      SMOKE_RETURN_NOT_OK(snap->engine.ExecutePlan(vname, plan, opts));
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

Status ServeCore::BuildSnapshot(uint64_t version,
                                std::unique_ptr<ServeSnapshot>* out) {
  auto snap = std::make_unique<ServeSnapshot>(version, &live_snapshots_);
  for (const auto& [name, table] : tables_) {
    SMOKE_RETURN_NOT_OK(snap->engine.CreateTable(name, table));  // copy
  }
  // View captures run at batch priority with full morsel parallelism: an
  // interactive brush arriving mid-rebuild jumps the queue at the next
  // morsel boundary.
  CaptureOptions opts = options_.view_capture;
  opts.mode = CaptureMode::kInject;
  opts.defer_plan_finalize = false;  // brushes need finalized indexes
  opts.scheduler = &batch_lease_;
  opts.num_threads = batch_lease_.num_threads();
  for (const auto& [vname, def] : views_) {
    LogicalPlan plan;
    SMOKE_RETURN_NOT_OK(def(snap->engine, &plan));
    SMOKE_RETURN_NOT_OK(snap->engine.ExecutePlan(vname, plan, opts));
    const PlanResult* pr = nullptr;
    SMOKE_RETURN_NOT_OK(snap->engine.GetPlanResult(vname, &pr));
    int rel = pr->lineage.FindInput(relation_);
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
