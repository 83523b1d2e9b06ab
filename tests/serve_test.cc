// The concurrent serving core: snapshot linearizability under a live
// writer (every brush sees exactly one complete version, bit-identical to
// the serial schedule), epoch reclamation of retired versions, per-session
// budget slices, and session-close accounting.
#include "serve/serve_core.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/plan_crossfilter.h"
#include "query/lineage_query.h"
#include "serve/session.h"
#include "test_util.h"
#include "workloads/zipf_table.h"

namespace smoke {
namespace {

constexpr size_t kRows = 3000;
constexpr uint64_t kGroups = 8;

/// Deterministic table contents for snapshot version `v` — the serial
/// reference and the serving core regenerate identical bytes from `v`.
Table VersionTable(int v) {
  return MakeZipfTable(kRows, kGroups, 1.0, /*seed=*/100 + v);
}

LogicalPlan ByZPlan(const Table* t) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "sum_v")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(b.Scan(t, "zipf"), spec), &plan).ok());
  return plan;
}

/// Selection under the histogram so snapshot rebuilds exercise more than
/// one parallel kernel.
LogicalPlan HotZPlan(const Table* t) {
  PlanBuilder b;
  int sel = b.Select(b.Scan(t, "zipf"),
                     {Predicate::Double(zipf_table::kV, CmpOp::kLt, 50.0)});
  GroupBySpec spec;
  spec.keys = {zipf_table::kZ};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(b.GroupBy(sel, spec), &plan).ok());
  return plan;
}

ServeCore::ViewDef DefOf(LogicalPlan (*maker)(const Table*)) {
  return [maker](const SmokeEngine& engine, LogicalPlan* plan) {
    const Table* t = nullptr;
    SMOKE_RETURN_NOT_OK(engine.GetTable("zipf", &t));
    *plan = maker(t);
    return Status::OK();
  };
}

/// The serial reference: the same views over one version's table, brushed
/// through the single-session PlanCrossfilter.
std::map<std::string, LinkedBrush> SerialBrush(const Table& data,
                                               const std::string& view,
                                               rid_t bar) {
  PlanCrossfilter xf("zipf");
  SMOKE_CHECK(xf.AddView("by_z", ByZPlan(&data)).ok());
  SMOKE_CHECK(xf.AddView("hot_z", HotZPlan(&data)).ok());
  std::map<std::string, LinkedBrush> out;
  SMOKE_CHECK(xf.Brush(view, bar, &out).ok());
  return out;
}

/// Canonical rendering of a brush result — fingerprint equality is the
/// bit-identical-to-serial check (rids, witness counts, materialized rows).
std::string Fingerprint(const std::map<std::string, LinkedBrush>& views) {
  std::string s;
  for (const auto& [name, lb] : views) {
    s += name + ":";
    SMOKE_CHECK(lb.rids.size() == lb.counts.size());
    SMOKE_CHECK(lb.rids.size() == lb.rows.num_rows());
    for (size_t i = 0; i < lb.rids.size(); ++i) {
      s += std::to_string(lb.rids[i]) + "#" + std::to_string(lb.counts[i]) +
           "[" + testing::RowKey(lb.rows, static_cast<rid_t>(i)) + "];";
    }
    s += "\n";
  }
  return s;
}

/// The scan reference for one snapshot: the linked rows and counts of a
/// brush recomputed from the views' definitions by scanning the snapshot's
/// table — by_z keys every row by z, hot_z only the rows with v < 50.
std::map<std::string, LinkedBrush> ScanBrush(const SmokeEngine& engine,
                                             const std::string& view,
                                             rid_t bar) {
  const Table* t = nullptr;
  SMOKE_CHECK(engine.GetTable("zipf", &t).ok());
  const auto& z = t->column(zipf_table::kZ).ints();
  const auto& v = t->column(zipf_table::kV).doubles();
  // Output row of `name` each base row lands in (kInvalidRid: none).
  auto rows_of = [&](const std::string& name) {
    const Table* out = nullptr;
    SMOKE_CHECK(engine.GetResult(name, &out).ok());
    std::map<int64_t, rid_t> by_key;
    for (rid_t r = 0; r < out->num_rows(); ++r) {
      by_key[out->column(0).ints()[r]] = r;
    }
    std::vector<rid_t> row_of(t->num_rows(), kInvalidRid);
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (name == "hot_z" && !(v[r] < 50.0)) continue;
      row_of[r] = by_key.at(z[r]);
    }
    return row_of;
  };
  const std::vector<rid_t> from = rows_of(view);
  std::map<std::string, LinkedBrush> out;
  for (const std::string name : {"by_z", "hot_z"}) {
    if (name == view) continue;
    const std::vector<rid_t> to = rows_of(name);
    LinkedBrush& lb = out[name];
    std::map<rid_t, size_t> slot;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (from[r] != bar || to[r] == kInvalidRid) continue;
      auto [it, fresh] = slot.emplace(to[r], lb.rids.size());
      if (fresh) {
        lb.rids.push_back(to[r]);
        lb.counts.push_back(0);
      }
      lb.counts[it->second]++;
    }
    const Table* target = nullptr;
    SMOKE_CHECK(engine.GetResult(name, &target).ok());
    SMOKE_CHECK(MaterializeRowsChecked(*target, lb.rids, &lb.rows).ok());
  }
  return out;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServeOptions opts;
    opts.num_threads = 2;
    opts.view_capture.morsel_rows = 256;  // many batch morsels per rebuild
    core_ = std::make_unique<ServeCore>("zipf", opts);
    ASSERT_TRUE(core_->CreateTable("zipf", VersionTable(1)).ok());
    ASSERT_TRUE(core_->DefineView("by_z", DefOf(ByZPlan)).ok());
    ASSERT_TRUE(core_->DefineView("hot_z", DefOf(HotZPlan)).ok());
    ASSERT_TRUE(core_->Start().ok());
  }

  std::unique_ptr<ServeCore> core_;
};

TEST(ServeCoreDefinitionTest, StartValidatesDefinition) {
  ServeCore empty("zipf");
  EXPECT_FALSE(empty.Start().ok());  // no tables

  ServeCore no_views("zipf");
  ASSERT_TRUE(no_views.CreateTable("zipf", VersionTable(1)).ok());
  EXPECT_FALSE(no_views.Start().ok());  // no views

  ServeCore wrong_rel("not_a_table");
  ASSERT_TRUE(wrong_rel.CreateTable("zipf", VersionTable(1)).ok());
  ASSERT_TRUE(wrong_rel.DefineView("by_z", DefOf(ByZPlan)).ok());
  EXPECT_FALSE(wrong_rel.Start().ok());  // relation not registered
}

TEST_F(ServeTest, DefinitionFrozenAfterStart) {
  EXPECT_FALSE(core_->CreateTable("t2", VersionTable(1)).ok());
  EXPECT_FALSE(core_->DefineView("v2", DefOf(ByZPlan)).ok());
  EXPECT_FALSE(core_->Start().ok());  // twice

  std::shared_ptr<ServeSession> a, b;
  ASSERT_TRUE(core_->OpenSession("alice", &a).ok());
  EXPECT_FALSE(core_->OpenSession("alice", &b).ok());  // duplicate id
  EXPECT_TRUE(core_->CloseSession("alice").ok());
  EXPECT_FALSE(core_->CloseSession("alice").ok());  // already closed
}

TEST_F(ServeTest, BrushMatchesSerialCrossfilter) {
  std::shared_ptr<ServeSession> s;
  ASSERT_TRUE(core_->OpenSession("s0", &s).ok());
  const Table data = VersionTable(1);
  for (rid_t bar = 0; bar < 4; ++bar) {
    for (const std::string view : {"by_z", "hot_z"}) {
      ServeSession::BrushResult got;
      ASSERT_TRUE(s->Brush(view, bar, &got).ok());
      EXPECT_EQ(got.snapshot_version, 1u);
      EXPECT_EQ(Fingerprint(got.views), Fingerprint(SerialBrush(data, view, bar)));
    }
  }
  const auto stats = s->GetStats();
  EXPECT_EQ(stats.brushes, 8u);
  EXPECT_EQ(stats.last_snapshot_version, 1u);
  EXPECT_GT(stats.total_brush_ms, 0.0);
  ASSERT_TRUE(core_->CloseSession("s0").ok());
}

TEST_F(ServeTest, BrushErrorsReturnStatus) {
  std::shared_ptr<ServeSession> s;
  ASSERT_TRUE(core_->OpenSession("s0", &s).ok());
  ServeSession::BrushResult r;
  EXPECT_EQ(s->Brush("by_z", static_cast<rid_t>(kGroups), &r).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(s->Brush("nope", 0, &r).code(), Status::Code::kNotFound);
  EXPECT_EQ(s->GetStats().brushes, 0u);
  ASSERT_TRUE(core_->CloseSession("s0").ok());
}

/// A core over both views under `codec`, started and fed one append.
std::unique_ptr<ServeCore> CodecCore(LineageCodec codec) {
  ServeOptions opts;
  opts.num_threads = 1;
  opts.view_capture.lineage_codec = codec;
  auto core = std::make_unique<ServeCore>("zipf", opts);
  SMOKE_CHECK(core->CreateTable("zipf", VersionTable(1)).ok());
  SMOKE_CHECK(core->DefineView("by_z", DefOf(ByZPlan)).ok());
  SMOKE_CHECK(core->DefineView("hot_z", DefOf(HotZPlan)).ok());
  SMOKE_CHECK(core->Start().ok());
  const Table delta = MakeZipfTable(500, kGroups, 1.0, /*seed=*/9);
  SMOKE_CHECK(core->AppendRows("zipf", delta).ok());
  return core;
}

/// Every bar of both views brushed through `core`, each checked against a
/// scan of the snapshot it pinned; returns the fingerprints in order.
std::vector<std::string> BrushEveryBar(ServeCore* core) {
  std::vector<std::string> prints;
  std::shared_ptr<ServeSession> s;
  EXPECT_TRUE(core->OpenSession("s0", &s).ok());
  ServeCore::SnapshotRef pin = core->AcquireSnapshot();
  const SmokeEngine& engine = pin.snapshot->engine;
  for (const std::string view : {"by_z", "hot_z"}) {
    const Table* out = nullptr;
    EXPECT_TRUE(engine.GetResult(view, &out).ok());
    for (rid_t bar = 0; bar < out->num_rows(); ++bar) {
      ServeSession::BrushResult got;
      EXPECT_TRUE(s->Brush(view, bar, &got).ok());
      EXPECT_EQ(got.snapshot_version, pin.version());
      prints.push_back(Fingerprint(got.views));
      EXPECT_EQ(prints.back(), Fingerprint(ScanBrush(engine, view, bar)))
          << view << " bar " << bar;
    }
  }
  EXPECT_TRUE(core->CloseSession("s0").ok());
  return prints;
}

// Views published under the adaptive codec (the default) brush through
// their encoded indexes; every brush equals a scan of the snapshot it
// pinned.
TEST(ServeCodecTest, AdaptiveViewBrushesMatchSnapshotScan) {
  EXPECT_EQ(ServeOptions().view_capture.lineage_codec,
            LineageCodec::kAdaptive);
  std::unique_ptr<ServeCore> core = CodecCore(LineageCodec::kAdaptive);
  {
    ServeCore::SnapshotRef pin = core->AcquireSnapshot();
    const PlanResult* by_z = nullptr;
    ASSERT_TRUE(pin.snapshot->engine.GetPlanResult("by_z", &by_z).ok());
    EXPECT_TRUE(by_z->lineage.input(0).forward.encoded());
    EXPECT_TRUE(by_z->lineage.input(0).backward.encoded());
  }
  EXPECT_FALSE(BrushEveryBar(core.get()).empty());
}

// The raw-codec twin publishes raw copies and brushes bit-identically.
TEST(ServeCodecTest, RawViewBrushesMatchAdaptiveTwin) {
  std::unique_ptr<ServeCore> raw = CodecCore(LineageCodec::kRaw);
  {
    ServeCore::SnapshotRef pin = raw->AcquireSnapshot();
    const PlanResult* by_z = nullptr;
    ASSERT_TRUE(pin.snapshot->engine.GetPlanResult("by_z", &by_z).ok());
    EXPECT_FALSE(by_z->lineage.input(0).forward.encoded());
    EXPECT_FALSE(by_z->lineage.input(0).backward.encoded());
  }
  std::unique_ptr<ServeCore> adaptive = CodecCore(LineageCodec::kAdaptive);
  EXPECT_EQ(BrushEveryBar(raw.get()), BrushEveryBar(adaptive.get()));
}

// The builder captures raw and refreshes in place; each snapshot holds its
// own encoded copy, whose size per row holds steady over many appends (no
// refresh overlay rides along into published versions). The first append
// after Start is incremental: Start already seeded the builder.
TEST(ServeCodecTest, EncodedSnapshotsFromRawBuilder) {
  ServeOptions opts;
  opts.num_threads = 1;
  ServeCore core("zipf", opts);
  ASSERT_TRUE(core.CreateTable("zipf", VersionTable(1)).ok());
  ASSERT_TRUE(core.DefineView("by_z", DefOf(ByZPlan)).ok());
  ASSERT_TRUE(core.DefineView("hot_z", DefOf(HotZPlan)).ok());
  ASSERT_TRUE(core.Start().ok());

  size_t rows = kRows;
  double first_bytes_per_row = 0;
  for (int k = 1; k <= 20; ++k) {
    const Table delta = MakeZipfTable(100, kGroups, 1.0, /*seed=*/200 + k);
    ASSERT_TRUE(core.AppendRows("zipf", delta).ok());
    rows += delta.num_rows();
    for (const RefreshStats& rs : core.LastRefreshStats()) {
      EXPECT_TRUE(rs.incremental) << "append " << k << ": "
                                  << rs.fallback_reason;
      EXPECT_TRUE(rs.fallback_reason.empty()) << rs.fallback_reason;
    }
    ServeCore::SnapshotRef pin = core.AcquireSnapshot();
    const SmokeEngine& engine = pin.snapshot->engine;
    for (const char* view : {"by_z", "hot_z"}) {
      const PlanResult* pr = nullptr;
      ASSERT_TRUE(engine.GetPlanResult(view, &pr).ok());
      EXPECT_TRUE(pr->lineage.input(0).backward.encoded()) << view;
      EXPECT_TRUE(pr->lineage.input(0).forward.encoded()) << view;
    }
    const LineageStoreStats published = engine.LineageMemoryStats();
    const LineageStoreStats builder = core.BuilderLineageStats();
    ASSERT_EQ(builder.num_queries, 2u);
    for (const auto& q : builder.queries) {
      EXPECT_EQ(q.codec, LineageCodec::kRaw) << q.name;
    }
    for (const auto& q : published.queries) {
      EXPECT_EQ(q.codec, LineageCodec::kAdaptive) << q.name;
    }
    EXPECT_LT(published.total_bytes, builder.total_bytes);
    const double per_row = static_cast<double>(published.total_bytes) /
                           static_cast<double>(rows);
    if (k == 1) first_bytes_per_row = per_row;
    EXPECT_LE(per_row, first_bytes_per_row * 1.1) << "append " << k;
    EXPECT_GE(per_row, first_bytes_per_row * 0.9) << "append " << k;
  }
  // The published bytes are a fraction of the raw capture's 8 per row and
  // view (a 4-byte backward and a 4-byte forward rid).
  EXPECT_LT(first_bytes_per_row, 2 * 8.0 / 2);
}

// The linearizability check: sessions brush while a writer replaces the
// base table; every observed result must be bit-identical to the serial
// schedule of the version it reports, versions must be monotone per
// session, and no brush may mix two versions.
TEST_F(ServeTest, ConcurrentBrushesSeeExactlyOneVersion) {
  constexpr int kVersions = 4;
  constexpr int kReaders = 4;
  constexpr rid_t kBars = 4;

  // Serial reference per (version, bar), precomputed single-threaded.
  std::vector<std::vector<std::string>> expected(kVersions + 1);
  for (int v = 1; v <= kVersions; ++v) {
    const Table data = VersionTable(v);
    for (rid_t bar = 0; bar < kBars; ++bar) {
      expected[v].push_back(Fingerprint(SerialBrush(data, "by_z", bar)));
    }
  }

  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> total_brushes{0};
  std::mutex err_mu;
  std::string first_error;

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::shared_ptr<ServeSession> s;
      ASSERT_TRUE(core_->OpenSession("reader" + std::to_string(r), &s).ok());
      uint64_t last_version = 0;
      rid_t bar = static_cast<rid_t>(r) % kBars;
      do {
        ServeSession::BrushResult got;
        Status st = s->Brush("by_z", bar, &got);
        if (!st.ok()) {
          mismatches++;
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error.empty()) first_error = st.message();
          break;
        }
        const uint64_t v = got.snapshot_version;
        if (v < 1 || v > static_cast<uint64_t>(kVersions) ||
            v < last_version ||
            Fingerprint(got.views) != expected[v][bar]) {
          mismatches++;
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error.empty()) {
            first_error = "version " + std::to_string(v) + " bar " +
                          std::to_string(bar) + " mismatch (last " +
                          std::to_string(last_version) + ")";
          }
        }
        last_version = v;
        bar = (bar + 1) % kBars;
        total_brushes++;
      } while (!writer_done.load());
    });
  }

  std::thread writer([&] {
    for (int v = 2; v <= kVersions; ++v) {
      ASSERT_TRUE(core_->ReplaceTable("zipf", VersionTable(v)).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    writer_done = true;
  });

  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0) << first_error;
  EXPECT_GT(total_brushes.load(), 0u);
  EXPECT_EQ(core_->CurrentVersion(), static_cast<uint64_t>(kVersions));
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(core_->CloseSession("reader" + std::to_string(r)).ok());
  }
  // All readers drained: every superseded version reclaims.
  EXPECT_EQ(core_->LiveSnapshots(), 1);
  const auto admission = core_->AdmissionStats();
  EXPECT_GE(admission.interactive.jobs, total_brushes.load());
  EXPECT_GT(admission.batch.tasks, 0u);  // rebuild morsels went batch-class
}

TEST_F(ServeTest, EpochReclamationFreesRetiredVersions) {
  EXPECT_EQ(core_->LiveSnapshots(), 1);

  // A pinned reader holds version 1; two replacements stack up behind it
  // (version 2's retire epoch postdates the pin, so it must wait too).
  ServeCore::SnapshotRef ref = core_->AcquireSnapshot();
  EXPECT_EQ(ref.version(), 1u);
  ASSERT_TRUE(core_->ReplaceTable("zipf", VersionTable(2)).ok());
  ASSERT_TRUE(core_->ReplaceTable("zipf", VersionTable(3)).ok());
  EXPECT_EQ(core_->LiveSnapshots(), 3);
  EXPECT_EQ(core_->EpochStats().retired, 2u);

  // The pinned snapshot is still fully readable after both replacements.
  const Table* out = nullptr;
  ASSERT_TRUE(ref.snapshot->engine.GetResult("by_z", &out).ok());
  EXPECT_EQ(out->num_rows(), kGroups);

  // Last reader drains: both retired versions free (ASan watches the
  // deletes), only the published one stays.
  ref.guard.Release();
  EXPECT_EQ(core_->LiveSnapshots(), 1);
  EXPECT_EQ(core_->EpochStats().retired, 0u);
  EXPECT_EQ(core_->EpochStats().reclaimed, 2u);
  EXPECT_EQ(core_->CurrentVersion(), 3u);
}

TEST_F(ServeTest, RetainedTracePinsItsSnapshotVersion) {
  std::shared_ptr<ServeSession> s;
  ASSERT_TRUE(core_->OpenSession("s0", &s).ok());
  ASSERT_TRUE(s->RetainBackwardTrace("brush0", "by_z", {0}).ok());
  EXPECT_FALSE(s->RetainBackwardTrace("brush0", "by_z", {1}).ok());  // dup

  ASSERT_TRUE(core_->ReplaceTable("zipf", VersionTable(2)).ok());
  // The handle pins version 1 across the replacement.
  EXPECT_EQ(core_->LiveSnapshots(), 2);
  const TraceResult* trace = nullptr;
  uint64_t version = 0;
  ASSERT_TRUE(s->GetRetainedTrace("brush0", &trace, &version).ok());
  EXPECT_EQ(version, 1u);

  // Its rids match a serial backward trace over version 1's data.
  SmokeEngine ref;
  ASSERT_TRUE(ref.CreateTable("zipf", VersionTable(1)).ok());
  const Table* t = nullptr;
  ASSERT_TRUE(ref.GetTable("zipf", &t).ok());
  ASSERT_TRUE(ref.ExecutePlan("by_z", ByZPlan(t)).ok());
  TraceResult serial;
  ASSERT_TRUE(ref.TraceBackward("by_z", "zipf", {0}, &serial).ok());
  EXPECT_EQ(testing::Sorted(trace->rids), testing::Sorted(serial.rids));

  // Dropping the handle releases the pin; version 1 reclaims.
  ASSERT_TRUE(s->DropRetainedTrace("brush0").ok());
  EXPECT_FALSE(s->DropRetainedTrace("brush0").ok());
  EXPECT_EQ(core_->LiveSnapshots(), 1);
  ASSERT_TRUE(core_->CloseSession("s0").ok());
}

TEST_F(ServeTest, SessionBudgetSliceEvictsColdestOwnTrace) {
  // Measure one trace's accounted bytes through an unlimited session.
  std::shared_ptr<ServeSession> probe;
  ASSERT_TRUE(core_->OpenSession("probe", &probe).ok());
  ASSERT_TRUE(probe->RetainBackwardTrace("t", "by_z", {0}).ok());
  const size_t bytes = probe->retained_bytes();
  ASSERT_GT(bytes, 0u);

  // A slice that fits one trace but not two: the second retain evicts the
  // session's own coldest handle, never the neighbor's.
  std::shared_ptr<ServeSession> s;
  ASSERT_TRUE(core_->OpenSession("tight", &s, bytes + bytes / 2).ok());
  ASSERT_TRUE(s->RetainBackwardTrace("first", "by_z", {0}).ok());
  ASSERT_TRUE(s->RetainBackwardTrace("second", "by_z", {0}).ok());
  EXPECT_EQ(s->RetainedTraceNames(), std::vector<std::string>{"second"});
  EXPECT_EQ(s->GetStats().traces_evicted, 1u);
  EXPECT_LE(s->retained_bytes(), s->budget_bytes());
  const TraceResult* gone = nullptr;
  EXPECT_EQ(s->GetRetainedTrace("first", &gone).code(),
            Status::Code::kNotFound);

  // Isolation: the probe session's handle survived its neighbor's pressure.
  const TraceResult* kept = nullptr;
  EXPECT_TRUE(probe->GetRetainedTrace("t", &kept).ok());

  // A trace that alone exceeds the slice is refused outright.
  std::shared_ptr<ServeSession> tiny;
  ASSERT_TRUE(core_->OpenSession("tiny", &tiny, bytes / 4).ok());
  Status st = tiny->RetainBackwardTrace("too_big", "by_z", {0});
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("budget slice"), std::string::npos);
  EXPECT_EQ(tiny->retained_bytes(), 0u);

  for (const char* id : {"probe", "tight", "tiny"}) {
    EXPECT_TRUE(core_->CloseSession(id).ok());
  }
}

TEST_F(ServeTest, CloseReleasesAccountingToBaseline) {
  EXPECT_EQ(core_->SessionLineageBytes(), 0u);
  std::shared_ptr<ServeSession> a, b;
  ASSERT_TRUE(core_->OpenSession("a", &a).ok());
  ASSERT_TRUE(core_->OpenSession("b", &b).ok());
  ASSERT_TRUE(a->RetainBackwardTrace("t1", "by_z", {0}).ok());
  ASSERT_TRUE(a->RetainBackwardTrace("t2", "hot_z", {1}).ok());
  ASSERT_TRUE(b->RetainBackwardTrace("t1", "by_z", {2}).ok());
  const size_t both = core_->SessionLineageBytes();
  EXPECT_GT(both, 0u);
  EXPECT_EQ(core_->NumSessions(), 2u);

  ASSERT_TRUE(core_->ReplaceTable("zipf", VersionTable(2)).ok());
  EXPECT_EQ(core_->LiveSnapshots(), 2);  // retained traces pin version 1

  ASSERT_TRUE(core_->CloseSession("a").ok());
  EXPECT_LT(core_->SessionLineageBytes(), both);
  // The closed handle refuses further work.
  ServeSession::BrushResult r;
  EXPECT_FALSE(a->Brush("by_z", 0, &r).ok());
  EXPECT_FALSE(a->RetainBackwardTrace("t3", "by_z", {0}).ok());

  ASSERT_TRUE(core_->CloseSession("b").ok());
  EXPECT_EQ(core_->SessionLineageBytes(), 0u);
  EXPECT_EQ(core_->NumSessions(), 0u);
  EXPECT_EQ(core_->LiveSnapshots(), 1);  // the pins went with the sessions
}

TEST_F(ServeTest, AppendRowsPublishesNewVersion) {
  std::shared_ptr<ServeSession> s;
  ASSERT_TRUE(core_->OpenSession("s0", &s).ok());
  Table delta = MakeZipfTable(500, kGroups, 1.0, /*seed=*/999);
  ASSERT_TRUE(core_->AppendRows("zipf", delta).ok());
  EXPECT_EQ(core_->CurrentVersion(), 2u);

  // The appended version equals the serial reference over the concatenation.
  Table full = VersionTable(1);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    full.AppendRowFrom(delta, static_cast<rid_t>(r));
  }
  ServeSession::BrushResult got;
  ASSERT_TRUE(s->Brush("by_z", 0, &got).ok());
  EXPECT_EQ(got.snapshot_version, 2u);
  EXPECT_EQ(Fingerprint(got.views), Fingerprint(SerialBrush(full, "by_z", 0)));

  EXPECT_FALSE(core_->AppendRows("nope", delta).ok());
  ASSERT_TRUE(core_->CloseSession("s0").ok());
}

}  // namespace
}  // namespace smoke
