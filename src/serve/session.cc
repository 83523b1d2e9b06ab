#include "serve/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace smoke {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Status SessionClosed(const std::string& id) {
  return Status::InvalidArgument("session '" + id + "' is closed");
}

}  // namespace

Status ServeSession::Brush(const std::string& view, rid_t out_rid,
                           BrushResult* out) {
  {
    MutexLock lock(mu_);
    if (closed_) return SessionClosed(id_);
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Pin first, then read: everything below sees exactly one published
  // version, regardless of concurrent ReplaceTable calls.
  ServeCore::SnapshotRef ref = core_->AcquireSnapshot();
  const ServeSnapshot* snap = ref.snapshot;
  const PlanResult* from = nullptr;
  SMOKE_RETURN_NOT_OK(snap->engine.GetPlanResult(view, &from));

  std::vector<BrushTarget> targets;
  for (const std::string& name : snap->views) {
    if (name == view) continue;
    BrushTarget t{name, nullptr};
    SMOKE_RETURN_NOT_OK(snap->engine.GetPlanResult(name, &t.result));
    targets.push_back(std::move(t));
  }

  out->snapshot_version = snap->version;
  Status st;
  // The whole brush is one interactive-class job: it admits ahead of any
  // queued batch capture morsels, and the session's own thread co-executes,
  // so a saturated pool can only slow a brush, never park it.
  core_->pool().Run(TaskClass::kInteractive, [&] {
    st = BrushLinkedPlans(*from, out_rid, core_->relation(), targets,
                          &out->views);
  });
  SMOKE_RETURN_NOT_OK(st);

  const double ms = MsSince(t0);
  MutexLock lock(mu_);
  brushes_++;
  total_brush_ms_ += ms;
  max_brush_ms_ = std::max(max_brush_ms_, ms);
  last_snapshot_version_ = snap->version;
  return Status::OK();
}

Status ServeSession::RetainBackwardTrace(const std::string& handle,
                                         const std::string& view,
                                         const std::vector<rid_t>& out_rids) {
  {
    MutexLock lock(mu_);
    if (closed_) return SessionClosed(id_);
    if (retained_.count(handle) != 0) {
      return Status::AlreadyExists("retained trace '" + handle + "'");
    }
  }

  ServeCore::SnapshotRef ref = core_->AcquireSnapshot();
  TraceResult traced;
  Status st;
  core_->pool().Run(TaskClass::kInteractive, [&] {
    st = ref.snapshot->engine.TraceBackward(view, core_->relation(), out_rids,
                                            &traced);
  });
  SMOKE_RETURN_NOT_OK(st);

  const size_t bytes =
      traced.plan.lineage.MemoryBytes() + traced.rows.MemoryBytes();
  MutexLock lock(mu_);
  if (closed_) return SessionClosed(id_);
  if (budget_ > 0 && bytes > budget_) {
    return Status::InvalidArgument(
        "trace '" + handle + "' (" + std::to_string(bytes) +
        " bytes) exceeds session '" + id_ + "' budget slice of " +
        std::to_string(budget_) + " bytes");
  }
  RetainedTrace rt;
  rt.result = std::move(traced);
  rt.version = ref.version();
  rt.ref = std::move(ref);
  retained_.emplace(handle, std::move(rt));
  tracker_.Register(handle, bytes, LineageCodec::kRaw);
  EnforceSliceLocked(handle);
  return Status::OK();
}

void ServeSession::EnforceSliceLocked(const std::string& keep) {
  while (budget_ > 0 && tracker_.total_bytes() > budget_) {
    std::string victim;
    if (!tracker_.Coldest(
            [&keep](const std::string& name, const LineageMemoryTracker::Entry&) {
              return name != keep;
            },
            &victim)) {
      break;
    }
    tracker_.Release(victim);
    retained_.erase(victim);  // drops the SnapshotRef pin too
    traces_evicted_++;
  }
}

Status ServeSession::GetRetainedTrace(const std::string& handle,
                                      const TraceResult** out,
                                      uint64_t* snapshot_version) const {
  MutexLock lock(mu_);
  if (closed_) return SessionClosed(id_);
  auto it = retained_.find(handle);
  if (it == retained_.end()) {
    return Status::NotFound("retained trace '" + handle + "'");
  }
  tracker_.Touch(handle);
  *out = &it->second.result;
  if (snapshot_version != nullptr) *snapshot_version = it->second.version;
  return Status::OK();
}

Status ServeSession::DropRetainedTrace(const std::string& handle) {
  MutexLock lock(mu_);
  if (closed_) return SessionClosed(id_);
  auto it = retained_.find(handle);
  if (it == retained_.end()) {
    return Status::NotFound("retained trace '" + handle + "'");
  }
  tracker_.Release(handle);
  retained_.erase(it);
  return Status::OK();
}

std::vector<std::string> ServeSession::RetainedTraceNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(retained_.size());
  for (const auto& [name, rt] : retained_) {
    (void)rt;
    names.push_back(name);
  }
  return names;
}

LineageStoreStats ServeSession::LineageStats() const {
  MutexLock lock(mu_);
  return tracker_.Stats();
}

size_t ServeSession::retained_bytes() const {
  MutexLock lock(mu_);
  return tracker_.total_bytes();
}

ServeSession::SessionStats ServeSession::GetStats() const {
  MutexLock lock(mu_);
  SessionStats s;
  s.brushes = brushes_;
  s.total_brush_ms = total_brush_ms_;
  s.max_brush_ms = max_brush_ms_;
  s.retained_traces = retained_.size();
  s.retained_bytes = tracker_.total_bytes();
  s.traces_evicted = traces_evicted_;
  s.last_snapshot_version = last_snapshot_version_;
  s.closed = closed_;
  return s;
}

void ServeSession::Close() {
  MutexLock lock(mu_);
  if (closed_) return;
  for (const auto& [name, rt] : retained_) {
    (void)rt;
    tracker_.Release(name);
  }
  retained_.clear();  // releases every snapshot pin
  closed_ = true;
}

}  // namespace smoke
