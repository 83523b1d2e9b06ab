// Determinism tests for morsel-driven parallel capture: composed
// backward/forward lineage and query results must be IDENTICAL (element by
// element, including duplicate and ordering behavior) for num_threads ∈
// {1, 2, 7} across select, group-by, join, and rollup plans. 7 is
// deliberately odd and coprime with the morsel size to exercise
// remainder-morsel paths. Also covers the morsel-view Operator contract,
// the MorselScheduler itself, and plan-level deferred finalization.
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "engine/group_by.h"
#include "engine/hash_join.h"
#include "engine/select.h"
#include "lineage/fragment_merge.h"
#include "plan/executor.h"
#include "plan/operator.h"
#include "plan/plan.h"
#include "plan/scheduler.h"
#include "test_util.h"

namespace smoke {
namespace {

constexpr int kThreadCounts[] = {2, 7};
constexpr size_t kMorselRows = 113;  // force many morsels + a remainder

/// events(k, grp, v): n rows, keys in [0, num_keys), deterministic LCG.
Table MakeEvents(size_t n, int64_t num_keys) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("grp", DataType::kString);
  s.AddField("v", DataType::kInt64);
  Table t(s);
  uint64_t x = 88172645463325252ULL;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    int64_t k = static_cast<int64_t>(x % static_cast<uint64_t>(num_keys));
    t.AppendRow({k, std::string(k % 3 == 0 ? "fizz" : "buzz"),
                 static_cast<int64_t>((x >> 32) % 1000)});
  }
  return t;
}

/// dim(k, w): one row per key (pk side of pk-fk joins).
Table MakeDim(int64_t num_keys) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("w", DataType::kInt64);
  Table t(s);
  for (int64_t k = 0; k < num_keys; ++k) t.AppendRow({k, k * 10});
  return t;
}

/// Exact (not set-based) index equality: same physical kind, same entry
/// count, same rids in the same order — the test's notion of "byte-equal".
::testing::AssertionResult SameIndex(const LineageIndex& a,
                                     const LineageIndex& b) {
  if (a.kind() != b.kind()) {
    return ::testing::AssertionFailure()
           << "kind " << static_cast<int>(a.kind()) << " vs "
           << static_cast<int>(b.kind());
  }
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  switch (a.kind()) {
    case LineageIndex::Kind::kNone:
      break;
    case LineageIndex::Kind::kArray:
      for (size_t i = 0; i < a.array().size(); ++i) {
        if (a.array()[i] != b.array()[i]) {
          return ::testing::AssertionFailure()
                 << "array[" << i << "]: " << a.array()[i] << " vs "
                 << b.array()[i];
        }
      }
      break;
    case LineageIndex::Kind::kIndex:
      for (size_t i = 0; i < a.index().size(); ++i) {
        const RidVec& la = a.index().list(i);
        const RidVec& lb = b.index().list(i);
        if (la.size() != lb.size()) {
          return ::testing::AssertionFailure()
                 << "list[" << i << "] size " << la.size() << " vs "
                 << lb.size();
        }
        for (size_t j = 0; j < la.size(); ++j) {
          if (la[j] != lb[j]) {
            return ::testing::AssertionFailure()
                   << "list[" << i << "][" << j << "]: " << la[j] << " vs "
                   << lb[j];
          }
        }
      }
      break;
    case LineageIndex::Kind::kEncodedArray:
    case LineageIndex::Kind::kEncodedIndex: {
      // Encoded forms: compare the decoded per-position sequences.
      std::vector<rid_t> ra, rb;
      for (size_t i = 0; i < a.size(); ++i) {
        ra.clear();
        rb.clear();
        a.TraceInto(static_cast<rid_t>(i), &ra);
        b.TraceInto(static_cast<rid_t>(i), &rb);
        if (ra != rb) {
          return ::testing::AssertionFailure()
                 << "encoded list[" << i << "] differs";
        }
      }
      break;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Exact table equality including row order.
::testing::AssertionResult SameTable(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "rows " << a.num_rows() << " vs " << b.num_rows();
  }
  for (rid_t r = 0; r < a.num_rows(); ++r) {
    if (testing::RowKey(a, r) != testing::RowKey(b, r)) {
      return ::testing::AssertionFailure()
             << "row " << r << ": " << testing::RowKey(a, r) << " vs "
             << testing::RowKey(b, r);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs `plan` at the given thread count and asserts output + every
/// composed lineage input matches the single-threaded reference.
void ExpectIdenticalAcrossThreads(const LogicalPlan& plan, CaptureMode mode) {
  CaptureOptions ref_opts = CaptureOptions::Mode(mode);
  ref_opts.morsel_rows = kMorselRows;
  PlanResult ref;
  ASSERT_TRUE(ExecutePlan(plan, ref_opts, &ref).ok());

  for (int threads : kThreadCounts) {
    CaptureOptions opts = ref_opts;
    opts.num_threads = threads;
    PlanResult got;
    ASSERT_TRUE(ExecutePlan(plan, opts, &got).ok());
    EXPECT_TRUE(SameTable(ref.output, got.output)) << "threads=" << threads;
    EXPECT_EQ(ref.output_cardinality, got.output_cardinality);
    ASSERT_EQ(ref.lineage.num_inputs(), got.lineage.num_inputs());
    for (size_t i = 0; i < ref.lineage.num_inputs(); ++i) {
      EXPECT_EQ(ref.lineage.input(i).table_name,
                got.lineage.input(i).table_name);
      EXPECT_TRUE(SameIndex(ref.lineage.input(i).backward,
                            got.lineage.input(i).backward))
          << "backward input " << i << " threads=" << threads;
      EXPECT_TRUE(SameIndex(ref.lineage.input(i).forward,
                            got.lineage.input(i).forward))
          << "forward input " << i << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler unit tests
// ---------------------------------------------------------------------------

TEST(MorselSchedulerTest, MorselAndPartitionSpansCoverInput) {
  auto morsels = MakeMorsels(1000, 113);
  ASSERT_EQ(morsels.size(), 9u);
  EXPECT_EQ(morsels.front().begin, 0u);
  EXPECT_EQ(morsels.back().end, 1000u);
  for (size_t m = 1; m < morsels.size(); ++m) {
    EXPECT_EQ(morsels[m].begin, morsels[m - 1].end);
  }
  EXPECT_EQ(morsels.back().rows(), 1000u - 8 * 113u);

  auto parts = MakePartitions(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].rows(), 4u);  // remainder goes to the first partitions
  EXPECT_EQ(parts[1].rows(), 3u);
  EXPECT_EQ(parts[2].rows(), 3u);
  EXPECT_TRUE(MakeMorsels(0, 64).empty());
  // More partitions than rows collapse to one per row at most.
  EXPECT_EQ(MakePartitions(2, 7).size(), 2u);
  EXPECT_EQ(MakePartitions(0, 7).size(), 1u);
}

TEST(MorselSchedulerTest, ParallelForRunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 7}) {
    MorselScheduler sched(threads);
    EXPECT_EQ(sched.num_threads(), threads);
    constexpr size_t kTasks = 501;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    // Repeated batches reuse the pool (one batch per plan operator).
    for (int round = 0; round < 3; ++round) {
      sched.ParallelFor(kTasks, [&](size_t task, size_t worker) {
        EXPECT_LT(worker, static_cast<size_t>(threads));
        hits[task].fetch_add(1);
      });
    }
    for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t].load(), 3);
  }
}

// ---------------------------------------------------------------------------
// Fragment-merge unit tests
// ---------------------------------------------------------------------------

TEST(FragmentMergeTest, OffsetsConcatScatterInvert) {
  std::vector<size_t> counts = {3, 0, 2};
  auto offsets = ExclusiveOffsets(counts);
  EXPECT_EQ(offsets, (std::vector<rid_t>{0, 3, 3, 5}));

  RidArray merged = ConcatBackwardArrays({{5, 7, 9}, {}, {1, 2}});
  EXPECT_EQ(merged, (RidArray{5, 7, 9, 1, 2}));

  // Two morsels over input rows [0,3) and [3,6).
  std::vector<RidArray> fw_parts = {{0, kInvalidRid, 1},
                                    {kInvalidRid, 0, 1}};
  RidArray fw = ScatterForwardArrays(6, fw_parts, {0, 3}, {0, 2});
  EXPECT_EQ(fw, (RidArray{0, kInvalidRid, 1, kInvalidRid, 2, 3}));

  RidIndex part0(2), part1(1);
  part0.Append(0, 0);
  part0.Append(0, 1);
  part0.Append(1, 1);
  part1.Append(0, 0);
  RidIndex cat = ConcatIndexParts({std::move(part0), std::move(part1)},
                                  {0, 2});
  ASSERT_EQ(cat.size(), 3u);
  EXPECT_EQ(testing::Sorted(cat.list(0)), (std::vector<rid_t>{0, 1}));
  EXPECT_EQ(testing::Sorted(cat.list(1)), (std::vector<rid_t>{1}));
  EXPECT_EQ(testing::Sorted(cat.list(2)), (std::vector<rid_t>{2}));

  RidIndex inv = InvertBackwardArray({2, 0, 2, kInvalidRid}, 3);
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(testing::Sorted(inv.list(0)), (std::vector<rid_t>{1}));
  EXPECT_TRUE(inv.list(1).empty());
  EXPECT_EQ(testing::Sorted(inv.list(2)), (std::vector<rid_t>{0, 2}));
}

// ---------------------------------------------------------------------------
// Determinism across thread counts, per plan shape
// ---------------------------------------------------------------------------

TEST(ParallelCaptureTest, SelectIdenticalAcrossThreads) {
  Table events = MakeEvents(5000, 40);
  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer}) {
    PlanBuilder b;
    int scan = b.Scan(&events, "events");
    int sel = b.Select(
        scan, {Predicate::Int(0, CmpOp::kLt, 11),
               Predicate::Int(2, CmpOp::kGe, 100)});
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(sel, &plan).ok());
    ExpectIdenticalAcrossThreads(plan, mode);
  }
}

TEST(ParallelCaptureTest, GroupByIdenticalAcrossThreads) {
  Table events = MakeEvents(5000, 97);
  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer}) {
    // Int-key path.
    {
      PlanBuilder b;
      int scan = b.Scan(&events, "events");
      GroupBySpec spec;
      spec.keys = {0};
      spec.aggs = {AggSpec::Count("cnt"),
                   AggSpec::Sum(ScalarExpr::Col(2), "sum_v"),
                   AggSpec::Max(ScalarExpr::Col(2), "max_v")};
      int gb = b.GroupBy(scan, spec);
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(gb, &plan).ok());
      ExpectIdenticalAcrossThreads(plan, mode);
    }
    // Composite (string-encoded) key path.
    {
      PlanBuilder b;
      int scan = b.Scan(&events, "events");
      GroupBySpec spec;
      spec.keys = {1, 0};
      spec.aggs = {AggSpec::Count("cnt"),
                   AggSpec::Min(ScalarExpr::Col(2), "min_v")};
      int gb = b.GroupBy(scan, spec);
      LogicalPlan plan;
      ASSERT_TRUE(b.Build(gb, &plan).ok());
      ExpectIdenticalAcrossThreads(plan, mode);
    }
  }
}

TEST(ParallelCaptureTest, JoinIdenticalAcrossThreads) {
  Table events = MakeEvents(4000, 50);
  Table dim = MakeDim(50);
  // Pk-fk probe (dim is the unique build side).
  {
    PlanBuilder b;
    int d = b.Scan(&dim, "dim");
    int e = b.Scan(&events, "events");
    JoinSpec spec;
    spec.left_key = 0;
    spec.right_key = 0;
    spec.pk_build = true;
    int j = b.HashJoin(d, e, spec);
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(j, &plan).ok());
    ExpectIdenticalAcrossThreads(plan, CaptureMode::kInject);
    // Pk-fk defer ≡ inject: the parallel path must hold there too.
    ExpectIdenticalAcrossThreads(plan, CaptureMode::kDefer);
  }
  // M:N probe: both sides are fact-like.
  {
    Table other = MakeEvents(700, 50);
    PlanBuilder b;
    int l = b.Scan(&other, "left_events");
    int r = b.Scan(&events, "right_events");
    JoinSpec spec;
    spec.left_key = 0;
    spec.right_key = 0;
    int j = b.HashJoin(l, r, spec);
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(j, &plan).ok());
    ExpectIdenticalAcrossThreads(plan, CaptureMode::kInject);
  }
}

TEST(ParallelCaptureTest, RollupPlanIdenticalAcrossThreads) {
  Table events = MakeEvents(5000, 61);
  Table dim = MakeDim(61);
  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer}) {
    // select -> pk-fk join -> group-by -> group-by rollup: every parallel
    // kernel composes through the full stack.
    PlanBuilder b;
    int d = b.Scan(&dim, "dim");
    int e = b.Scan(&events, "events");
    int sel = b.Select(e, {Predicate::Int(2, CmpOp::kLt, 900)});
    JoinSpec jspec;
    jspec.left_key = 0;
    jspec.right_key = 0;
    jspec.pk_build = true;
    int j = b.HashJoin(d, sel, jspec);
    GroupBySpec g1;
    g1.keys = {0};
    g1.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(1), "w")};
    int gb1 = b.GroupBy(j, g1);
    GroupBySpec g2;
    g2.keys = {1};  // roll up by per-key count
    g2.aggs = {AggSpec::Count("keys")};
    int gb2 = b.GroupBy(gb1, g2);
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(gb2, &plan).ok());
    ExpectIdenticalAcrossThreads(plan, mode);
  }
}

TEST(ParallelCaptureTest, SharedSubplanDagIdenticalAcrossThreads) {
  // A shared select subplan consumed by two parents whose outputs re-merge
  // through a bag union: the composition layer's DAG path-merge runs on top
  // of morsel-parallel fragments.
  Table events = MakeEvents(3000, 17);
  PlanBuilder b;
  int scan = b.Scan(&events, "events");
  int shared = b.Select(scan, {Predicate::Int(2, CmpOp::kLt, 800)});
  int low = b.Select(shared, {Predicate::Int(0, CmpOp::kLt, 9)});
  int high = b.Select(shared, {Predicate::Int(0, CmpOp::kGe, 9)});
  int root = b.SetOp(SetOpKind::kBagUnion, low, high, std::vector<int>{});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(root, &plan).ok());
  ExpectIdenticalAcrossThreads(plan, CaptureMode::kInject);
}

TEST(ParallelCaptureTest, DirectionPruningRespectedInParallel) {
  Table events = MakeEvents(3000, 30);
  PlanBuilder b;
  int scan = b.Scan(&events, "events");
  GroupBySpec spec;
  spec.keys = {0};
  spec.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(scan, spec);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(gb, &plan).ok());

  CaptureOptions opts = CaptureOptions::Inject();
  opts.num_threads = 7;
  opts.capture_forward = false;
  PlanResult res;
  ASSERT_TRUE(ExecutePlan(plan, opts, &res).ok());
  EXPECT_FALSE(res.lineage.input(0).backward.empty());
  EXPECT_TRUE(res.lineage.input(0).forward.empty());
}

// ---------------------------------------------------------------------------
// Morsel-view Operator contract
// ---------------------------------------------------------------------------

TEST(MorselViewTest, SelectFragmentsOverViewsMergeToFullRun) {
  Table events = MakeEvents(1000, 20);
  PlanBuilder b;
  int scan = b.Scan(&events, "events");
  int sel = b.Select(scan, {Predicate::Int(0, CmpOp::kLt, 7)});
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(sel, &plan).ok());
  std::unique_ptr<Operator> op = MakeOperator(plan.node(plan.root()));

  CaptureOptions opts = CaptureOptions::Inject();
  OperatorInput full;
  full.table = &events;
  full.name = "events";
  OperatorResult whole;
  ASSERT_TRUE(op->Execute({full}, opts, &whole).ok());

  // Split 1000 rows into views [0,400) and [400,1000); per-view fragments
  // carry absolute input rids + view-local output rids, merged with the
  // fragment-merge layer.
  std::vector<Morsel> views(2);
  views[0].begin = 0;
  views[0].end = 400;
  views[1].begin = 400;
  views[1].end = 1000;
  std::vector<OperatorResult> parts(2);
  for (size_t v = 0; v < views.size(); ++v) {
    OperatorInput in = full;
    in.view = views[v];
    in.has_view = true;
    ASSERT_TRUE(op->Execute({in}, opts, &parts[v]).ok());
  }
  std::vector<size_t> counts = {parts[0].output.num_rows(),
                                parts[1].output.num_rows()};
  auto offsets = ExclusiveOffsets(counts);

  Table merged_out(events.schema());
  std::vector<RidArray> bw_parts, fw_parts;
  std::vector<rid_t> in_begins;
  for (size_t v = 0; v < parts.size(); ++v) {
    merged_out.AppendAllRows(std::move(parts[v].output));
    bw_parts.push_back(parts[v].fragments[0].backward.array());
    // The per-view forward array spans the full input; slice the view.
    const RidArray& f = parts[v].fragments[0].forward.array();
    fw_parts.emplace_back(f.begin() + views[v].begin,
                          f.begin() + views[v].end);
    in_begins.push_back(views[v].begin);
  }
  EXPECT_TRUE(SameTable(whole.output, merged_out));
  EXPECT_TRUE(SameIndex(
      whole.fragments[0].backward,
      LineageIndex::FromArray(ConcatBackwardArrays(std::move(bw_parts)))));
  EXPECT_TRUE(SameIndex(
      whole.fragments[0].forward,
      LineageIndex::FromArray(ScatterForwardArrays(
          events.num_rows(), fw_parts, in_begins, offsets))));
}

TEST(MorselViewTest, PartitionIgnorantOperatorsRejectPartialViews) {
  Table events = MakeEvents(100, 5);
  PlanBuilder b;
  int scan = b.Scan(&events, "events");
  GroupBySpec spec;
  spec.keys = {0};
  spec.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(scan, spec);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(gb, &plan).ok());
  std::unique_ptr<Operator> op = MakeOperator(plan.node(plan.root()));

  OperatorInput in;
  in.table = &events;
  in.name = "events";
  in.view.begin = 0;
  in.view.end = 50;
  in.has_view = true;
  OperatorResult out;
  Status s = op->Execute({in}, CaptureOptions::Inject(), &out);
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// Plan-level deferred finalization (think-time Zγ)
// ---------------------------------------------------------------------------

TEST(PlanDeferTest, FinalizeDeferredMatchesEagerDefer) {
  Table events = MakeEvents(4000, 53);
  for (int threads : {1, 7}) {
    PlanBuilder b;
    int scan = b.Scan(&events, "events");
    int sel = b.Select(scan, {Predicate::Int(2, CmpOp::kGe, 50)});
    GroupBySpec spec;
    spec.keys = {0};
    spec.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(2), "s")};
    int gb = b.GroupBy(sel, spec);
    LogicalPlan plan;
    ASSERT_TRUE(b.Build(gb, &plan).ok());

    CaptureOptions eager = CaptureOptions::Defer();
    eager.num_threads = threads;
    eager.morsel_rows = kMorselRows;
    PlanResult ref;
    ASSERT_TRUE(ExecutePlan(plan, eager, &ref).ok());
    ASSERT_FALSE(ref.HasDeferred());

    CaptureOptions lazy = eager;
    lazy.defer_plan_finalize = true;
    PlanResult res;
    ASSERT_TRUE(ExecutePlan(plan, lazy, &res).ok());
    EXPECT_TRUE(res.HasDeferred());
    EXPECT_TRUE(SameTable(ref.output, res.output));
    EXPECT_EQ(res.lineage.num_inputs(), 0u);  // nothing composed yet

    ASSERT_TRUE(res.FinalizeDeferred().ok());  // think-time Zγ
    EXPECT_FALSE(res.HasDeferred());
    ASSERT_EQ(res.lineage.num_inputs(), ref.lineage.num_inputs());
    EXPECT_TRUE(SameIndex(ref.lineage.input(0).backward,
                          res.lineage.input(0).backward));
    EXPECT_TRUE(SameIndex(ref.lineage.input(0).forward,
                          res.lineage.input(0).forward));
    // Idempotent.
    ASSERT_TRUE(res.FinalizeDeferred().ok());
  }
}

TEST(PlanDeferTest, EngineFinalizePlanGatesLineageQueries) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("events", MakeEvents(2000, 31)).ok());
  const Table* events = nullptr;
  ASSERT_TRUE(engine.GetTable("events", &events).ok());

  PlanBuilder b;
  int scan = b.Scan(events, "events");
  GroupBySpec spec;
  spec.keys = {0};
  spec.aggs = {AggSpec::Count("cnt")};
  int gb = b.GroupBy(scan, spec);
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(gb, &plan).ok());

  CaptureOptions opts = CaptureOptions::Defer();
  opts.defer_plan_finalize = true;
  opts.num_threads = 2;
  ASSERT_TRUE(engine.ExecutePlan("per_key", plan, opts).ok());

  std::vector<rid_t> rids;
  EXPECT_FALSE(engine.Backward("per_key", "events", {0}, &rids).ok());
  ASSERT_TRUE(engine.FinalizePlan("per_key").ok());
  ASSERT_TRUE(engine.Backward("per_key", "events", {0}, &rids).ok());
  EXPECT_FALSE(rids.empty());
  // Every traced rid really carries the first output's group key.
  const auto& keys = events->column(0).ints();
  const Table* out = nullptr;
  ASSERT_TRUE(engine.GetResult("per_key", &out).ok());
  for (rid_t r : rids) EXPECT_EQ(keys[r], out->column(0).ints()[0]);

  EXPECT_FALSE(engine.FinalizePlan("nope").ok());
}

// ---------------------------------------------------------------------------
// Engine facade: parallel execution end to end
// ---------------------------------------------------------------------------

TEST(ParallelCaptureTest, EngineParallelPlanMatchesSequential) {
  SmokeEngine engine;
  ASSERT_TRUE(engine.CreateTable("events", MakeEvents(3000, 23)).ok());
  const Table* events = nullptr;
  ASSERT_TRUE(engine.GetTable("events", &events).ok());

  auto build = [&] {
    PlanBuilder b;
    int scan = b.Scan(events, "events");
    GroupBySpec spec;
    spec.keys = {0};
    spec.aggs = {AggSpec::Sum(ScalarExpr::Col(2), "sum_v")};
    int gb = b.GroupBy(scan, spec);
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(gb, &plan).ok());
    return plan;
  };
  LogicalPlan p1 = build();
  LogicalPlan p7 = build();
  CaptureOptions seq = CaptureOptions::Inject();
  CaptureOptions par = CaptureOptions::Inject();
  par.num_threads = 7;
  par.morsel_rows = kMorselRows;
  ASSERT_TRUE(engine.ExecutePlan("q1", p1, seq).ok());
  ASSERT_TRUE(engine.ExecutePlan("q7", p7, par).ok());

  const PlanResult* r1 = nullptr;
  const PlanResult* r7 = nullptr;
  ASSERT_TRUE(engine.GetPlanResult("q1", &r1).ok());
  ASSERT_TRUE(engine.GetPlanResult("q7", &r7).ok());
  EXPECT_TRUE(SameTable(r1->output, r7->output));
  EXPECT_TRUE(SameIndex(r1->lineage.input(0).backward,
                        r7->lineage.input(0).backward));
  EXPECT_TRUE(SameIndex(r1->lineage.input(0).forward,
                        r7->lineage.input(0).forward));

  // Linked brushing across a sequential and a parallel query.
  std::vector<rid_t> linked;
  ASSERT_TRUE(
      testing::TraceAcross(engine, "q1", {0}, "events", "q7", &linked).ok());
  EXPECT_EQ(linked, (std::vector<rid_t>{0}));
}

TEST(PlanDeferTest, ParallelFinalizeDeferredGroupByBitIdentical) {
  // The think-time Zγ probe runs morsel-parallel (per-partition backward
  // lists concatenated in partition order): indexes must be bit-identical
  // to the sequential probe for any thread count, for both key paths.
  Table events = MakeEvents(5000, 97);
  struct KeyCase {
    std::vector<int> keys;
  };
  for (const KeyCase& kc : {KeyCase{{0}}, KeyCase{{1, 0}}}) {
    GroupBySpec spec;
    spec.keys = kc.keys;
    spec.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col(2), "s")};

    auto ref = GroupByExec(events, "events", spec, CaptureOptions::Defer());
    FinalizeDeferredGroupBy(&ref, events, CaptureOptions::Defer());

    for (int threads : kThreadCounts) {
      CaptureOptions opts = CaptureOptions::Defer();
      opts.num_threads = threads;
      auto got = GroupByExec(events, "events", spec, opts);
      FinalizeDeferredGroupBy(&got, events, opts);
      EXPECT_TRUE(SameTable(ref.output, got.output)) << "threads=" << threads;
      EXPECT_TRUE(SameIndex(ref.lineage.input(0).backward,
                            got.lineage.input(0).backward))
          << "threads=" << threads;
      EXPECT_TRUE(SameIndex(ref.lineage.input(0).forward,
                            got.lineage.input(0).forward))
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace smoke
