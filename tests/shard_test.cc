// Sharded execution (shard/coordinator.h): ShardMap codec round-trips,
// range/hash slicing, bit-identical sharded vs unsharded results and lineage
// for the gather, exchange, broadcast and co-located join paths, sharded
// results traced and accounted exactly like unsharded ones, the engine's
// shard lifecycle (re-shard / unshard under retained results, atomic append
// refusal), and SPJA queries (ExecuteQuery) routed through the coordinator
// like any plan.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "shard/shard_map.h"
#include "shard/sharded_table.h"
#include "test_util.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

TEST(ShardMapTest, RoundTripAndLocalOrder) {
  // Assignment: rids 0..9 over 3 shards, interleaved.
  std::vector<uint32_t> shard_of = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  ShardMap m = ShardMap::FromAssignment(shard_of, 3);
  ASSERT_EQ(m.num_shards(), 3u);
  ASSERT_EQ(m.num_rows(), 10u);
  EXPECT_EQ(m.shard_rows(0), 4u);
  EXPECT_EQ(m.shard_rows(1), 3u);
  EXPECT_EQ(m.shard_rows(2), 3u);
  for (rid_t g = 0; g < 10; ++g) {
    ShardLoc loc = m.ToLocal(g);
    EXPECT_EQ(loc.shard, shard_of[g]);
    EXPECT_EQ(m.ToGlobal(loc.shard, loc.local), g);
  }
  // Locals preserve ascending global order within each shard.
  for (uint32_t s = 0; s < 3; ++s) {
    const std::vector<rid_t>& globals = m.globals_of(s);
    for (size_t i = 1; i < globals.size(); ++i) {
      EXPECT_LT(globals[i - 1], globals[i]);
    }
  }
}

Table MakeKv(const std::vector<int64_t>& keys) {
  Schema s;
  s.AddField("k", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  for (size_t i = 0; i < keys.size(); ++i) {
    t.AppendRow({keys[i], static_cast<double>(i)});
  }
  return t;
}

TEST(ShardedTableTest, RangeSlicingIsOrderStable) {
  Table base = MakeKv({5, 0, 9, 2, 7, 4, 1, 8, 3, 6});
  ShardedTable st;
  ASSERT_TRUE(ShardedTable::Create(&base, ShardingSpec::Range(0, 2), &st).ok());
  ASSERT_EQ(st.num_shards(), 2u);
  // Equal-width over [0, 9]: shard 0 gets k in [0, 5), shard 1 the rest.
  size_t total = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    const Table& slice = st.shard(s);
    total += slice.num_rows();
    rid_t prev_global = 0;
    for (rid_t l = 0; l < slice.num_rows(); ++l) {
      rid_t g = st.map().ToGlobal(s, l);
      int64_t k = base.column(0).ints()[g];
      EXPECT_EQ(s == 0, k < 5) << "k=" << k;
      // Slice rows are copies of the base rows, in ascending global order.
      EXPECT_EQ(slice.column(0).ints()[l], k);
      EXPECT_EQ(slice.column(1).doubles()[l], base.column(1).doubles()[g]);
      if (l > 0) {
        EXPECT_LT(prev_global, g);
      }
      prev_global = g;
    }
  }
  EXPECT_EQ(total, base.num_rows());
}

TEST(ShardedTableTest, HashSlicingUsesSharedHash) {
  Table base = MakeKv({0, 1, 2, 3, 4, 5, 6, 7, 0, 1});
  ShardedTable st;
  ASSERT_TRUE(ShardedTable::Create(&base, ShardingSpec::Hash(0, 3), &st).ok());
  for (rid_t g = 0; g < base.num_rows(); ++g) {
    EXPECT_EQ(st.map().ToLocal(g).shard,
              ShardOfHash(base.column(0).ints()[g], 3));
  }
}

TEST(ShardedTableTest, RejectsNonInt64PartitionColumn) {
  Table base = MakeKv({1, 2, 3});
  ShardedTable st;
  EXPECT_FALSE(ShardedTable::Create(&base, ShardingSpec::Hash(1, 2), &st).ok());
  EXPECT_FALSE(ShardedTable::Create(&base, ShardingSpec::Hash(9, 2), &st).ok());
}

// ---------------------------------------------------------------------------
// Engine-level sharded execution vs an identical unsharded engine.
// ---------------------------------------------------------------------------

/// events(g, k, v): 100 rows, g = i / 20 (5 contiguous blocks), k = i % 8,
/// v integer-valued so SUM is exact under any association.
Table MakeEvents() {
  Schema s;
  s.AddField("g", DataType::kInt64);
  s.AddField("k", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  for (int64_t i = 0; i < 100; ++i) {
    t.AppendRow({i / 20, i % 8, static_cast<double>((i * 7) % 50)});
  }
  return t;
}

class ShardEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sharded_.CreateTable("events", MakeEvents()).ok());
    ASSERT_TRUE(plain_.CreateTable("events", MakeEvents()).ok());
    ASSERT_TRUE(sharded_.ShardTable("events", ShardingSpec::Hash(0, 5)).ok());
  }

  /// Runs `build` against both engines and checks outputs match bit-exactly.
  void RunBoth(const std::string& name,
               const std::function<LogicalPlan(const Table*)>& build) {
    const Table *ts = nullptr, *tp = nullptr;
    ASSERT_TRUE(sharded_.GetTable("events", &ts).ok());
    ASSERT_TRUE(plain_.GetTable("events", &tp).ok());
    ASSERT_TRUE(sharded_.ExecutePlan(name, build(ts)).ok());
    ASSERT_TRUE(plain_.ExecutePlan(name, build(tp)).ok());
    const Table *os = nullptr, *op = nullptr;
    ASSERT_TRUE(sharded_.GetResult(name, &os).ok());
    ASSERT_TRUE(plain_.GetResult(name, &op).ok());
    ExpectSameTable(*os, *op);
    // Lineage agrees in both directions for every position.
    for (rid_t r = 0; r < os->num_rows(); ++r) {
      std::vector<rid_t> bs, bp;
      ASSERT_TRUE(sharded_.Backward(name, "events", {r}, &bs, false).ok());
      ASSERT_TRUE(plain_.Backward(name, "events", {r}, &bp, false).ok());
      EXPECT_EQ(bs, bp) << name << " backward of output " << r;
    }
    const Table* base = nullptr;
    ASSERT_TRUE(plain_.GetTable("events", &base).ok());
    for (rid_t r = 0; r < base->num_rows(); ++r) {
      TraceResult fs, fp;
      ASSERT_TRUE(sharded_.TraceForward(name, "events", {r}, &fs).ok());
      ASSERT_TRUE(plain_.TraceForward(name, "events", {r}, &fp).ok());
      EXPECT_EQ(fs.rids, fp.rids) << name << " forward of input " << r;
    }
  }

  static void ExpectSameTable(const Table& a, const Table& b) {
    ASSERT_EQ(a.num_columns(), b.num_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.column(c).type(), b.column(c).type());
      switch (a.column(c).type()) {
        case DataType::kInt64:
          EXPECT_EQ(a.column(c).ints(), b.column(c).ints()) << "col " << c;
          break;
        case DataType::kFloat64:
          EXPECT_EQ(a.column(c).doubles(), b.column(c).doubles())
              << "col " << c;
          break;
        case DataType::kString:
          EXPECT_EQ(a.column(c).strings(), b.column(c).strings())
              << "col " << c;
          break;
      }
    }
  }

  /// SELECT g, COUNT(*) FROM events GROUP BY g.
  static LogicalPlan ByG(const Table* t) {
    PlanBuilder b;
    GroupBySpec spec;
    spec.key_names = {"g"};
    spec.aggs = {AggSpec::Count("cnt")};
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(b.GroupBy(b.Scan(t, "events"), spec), &plan).ok());
    return plan;
  }

  SmokeEngine sharded_;
  SmokeEngine plain_;
};

TEST_F(ShardEngineTest, GroupByExchangeBitIdentical) {
  RunBoth("by_g", [](const Table* t) {
    PlanBuilder b;
    GroupBySpec spec;
    spec.key_names = {"g"};
    spec.aggs = {AggSpec::Count("cnt"), AggSpec::Sum(ScalarExpr::Col("v"), "sum_v")};
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(b.GroupBy(b.Scan(t, "events"), spec), &plan).ok());
    return plan;
  });
}

TEST_F(ShardEngineTest, SelectProjectDeriveGatherBitIdentical) {
  RunBoth("hot", [](const Table* t) {
    PlanBuilder b;
    int sel = b.Select(b.Scan(t, "events"),
                       {Predicate::Double("v", CmpOp::kGe, 10.0)});
    int der = b.Derive(sel, {GroupExpr::Raw("k", "k2")});
    int proj = b.Project(der, std::vector<std::string>{"g", "v", "k2"});
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(proj, &plan).ok());
    return plan;
  });
}

TEST_F(ShardEngineTest, BackwardEqualsUnshardedForEverySeedSet) {
  // The exchange (group-by) and gather (select/project) paths, each traced
  // with single-seed, multi-seed and duplicate-bearing seed sets.
  RunBoth("by_g", [](const Table* t) { return ByG(t); });
  RunBoth("hot", [](const Table* t) {
    PlanBuilder b;
    int sel = b.Select(b.Scan(t, "events"),
                       {Predicate::Double("v", CmpOp::kGe, 10.0)});
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(b.Project(sel, std::vector<std::string>{"g", "v"}),
                        &plan)
                    .ok());
    return plan;
  });
  const std::vector<std::vector<rid_t>> seed_sets = {
      {0}, {3}, {0, 1, 2, 3, 4}, {4, 0, 2}, {2, 2, 0}, {1, 3, 1, 3, 0}};
  for (const char* name : {"by_g", "hot"}) {
    for (const std::vector<rid_t>& seeds : seed_sets) {
      for (bool dedup : {true, false}) {
        std::vector<rid_t> bs, bp;
        ASSERT_TRUE(sharded_.Backward(name, "events", seeds, &bs, dedup).ok());
        ASSERT_TRUE(plain_.Backward(name, "events", seeds, &bp, dedup).ok());
        EXPECT_EQ(bs, bp) << name << " seeds " << seeds.size()
                          << " dedup=" << dedup;
        EXPECT_FALSE(bs.empty()) << name;
      }
    }
    const Table* out = nullptr;
    ASSERT_TRUE(sharded_.GetResult(name, &out).ok());
    std::vector<rid_t> rids;
    const rid_t past_end = static_cast<rid_t>(out->num_rows());
    EXPECT_EQ(sharded_.Backward(name, "events", {0, past_end}, &rids).code(),
              Status::Code::kInvalidArgument)
        << name;
    EXPECT_EQ(
        sharded_.Backward(name, "events", {past_end}, &rids, false).code(),
        Status::Code::kInvalidArgument)
        << name;
  }
}

TEST_F(ShardEngineTest, LineageMemoryStatsMatchUnsharded) {
  // A sharded result retains its composed lineage and nothing else, so the
  // store accounts the same bytes for it as for the unsharded run. Encoded
  // bytes are a function of the rids alone; raw bytes count allocated
  // capacity, which depends on how each run grew its lists, so the raw
  // codec is left out of the comparison.
  const Table *ts = nullptr, *tp = nullptr;
  ASSERT_TRUE(sharded_.GetTable("events", &ts).ok());
  ASSERT_TRUE(plain_.GetTable("events", &tp).ok());
  for (LineageCodec codec : {LineageCodec::kRange, LineageCodec::kBitmap,
                             LineageCodec::kAdaptive}) {
    const std::string name = LineageCodecName(codec);
    CaptureOptions opts = CaptureOptions::Inject();
    opts.lineage_codec = codec;
    ASSERT_TRUE(sharded_.ExecutePlan(name, ByG(ts), opts).ok());
    ASSERT_TRUE(plain_.ExecutePlan(name, ByG(tp), opts).ok());
  }
  const LineageStoreStats s = sharded_.LineageMemoryStats();
  const LineageStoreStats p = plain_.LineageMemoryStats();
  ASSERT_EQ(s.queries.size(), 3u);
  ASSERT_EQ(p.queries.size(), 3u);
  for (size_t i = 0; i < s.queries.size(); ++i) {
    EXPECT_GT(s.queries[i].bytes, 0u) << s.queries[i].name;
    EXPECT_EQ(s.queries[i].bytes, p.queries[i].bytes) << s.queries[i].name;
  }
  EXPECT_EQ(s.total_bytes, p.total_bytes);
}

TEST_F(ShardEngineTest, BroadcastJoinBitIdentical) {
  // dims(k, w) stays unsharded: the join build side is executed once and
  // broadcast, while the probe side runs per shard.
  Schema ds;
  ds.AddField("k", DataType::kInt64);
  ds.AddField("w", DataType::kFloat64);
  auto make_dims = [&ds] {
    Table d(ds);
    for (int64_t k = 0; k < 8; ++k) d.AppendRow({k, static_cast<double>(100 + k)});
    return d;
  };
  ASSERT_TRUE(sharded_.CreateTable("dims", make_dims()).ok());
  ASSERT_TRUE(plain_.CreateTable("dims", make_dims()).ok());

  auto build = [](const Table* events, const Table* dims) {
    PlanBuilder b;
    JoinSpec spec;
    spec.left_key_name = "k";
    spec.right_key_name = "k";
    spec.pk_build = true;
    int join = b.HashJoin(b.Scan(dims, "dims"), b.Scan(events, "events"), spec);
    GroupBySpec g;
    g.key_names = {"g"};
    g.aggs = {AggSpec::Sum(ScalarExpr::Col("w"), "sum_w")};
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(b.GroupBy(join, g), &plan).ok());
    return plan;
  };
  const Table *es = nullptr, *ep = nullptr, *dsh = nullptr, *dpl = nullptr;
  ASSERT_TRUE(sharded_.GetTable("events", &es).ok());
  ASSERT_TRUE(plain_.GetTable("events", &ep).ok());
  ASSERT_TRUE(sharded_.GetTable("dims", &dsh).ok());
  ASSERT_TRUE(plain_.GetTable("dims", &dpl).ok());
  ASSERT_TRUE(sharded_.ExecutePlan("j", build(es, dsh)).ok());
  ASSERT_TRUE(plain_.ExecutePlan("j", build(ep, dpl)).ok());
  const Table *os = nullptr, *op = nullptr;
  ASSERT_TRUE(sharded_.GetResult("j", &os).ok());
  ASSERT_TRUE(plain_.GetResult("j", &op).ok());
  ExpectSameTable(*os, *op);
  for (const char* rel : {"events", "dims"}) {
    for (rid_t r = 0; r < os->num_rows(); ++r) {
      std::vector<rid_t> bs, bp;
      ASSERT_TRUE(sharded_.Backward("j", rel, {r}, &bs, false).ok());
      ASSERT_TRUE(plain_.Backward("j", rel, {r}, &bp, false).ok());
      EXPECT_EQ(bs, bp) << rel << " backward of output " << r;
    }
  }
}

TEST_F(ShardEngineTest, ColocatedJoinBitIdentical) {
  // Both tables hash-sharded on the join key with equal shard counts:
  // matching keys land in the same shard, so the build side reads its own
  // slice instead of a broadcast.
  Schema ds;
  ds.AddField("k", DataType::kInt64);
  ds.AddField("w", DataType::kFloat64);
  auto make_dims = [&ds] {
    Table d(ds);
    for (int64_t k = 0; k < 8; ++k) d.AppendRow({k, static_cast<double>(k * 3)});
    return d;
  };
  ASSERT_TRUE(sharded_.CreateTable("dims", make_dims()).ok());
  ASSERT_TRUE(plain_.CreateTable("dims", make_dims()).ok());
  // Re-shard events on the join key k (col 1) so the join is co-located.
  ASSERT_TRUE(sharded_.ShardTable("events", ShardingSpec::Hash(1, 3)).ok());
  ASSERT_TRUE(sharded_.ShardTable("dims", ShardingSpec::Hash(0, 3)).ok());

  auto build = [](const Table* events, const Table* dims) {
    PlanBuilder b;
    JoinSpec spec;
    spec.left_key_name = "k";
    spec.right_key_name = "k";
    spec.pk_build = true;
    int join = b.HashJoin(b.Scan(dims, "dims"), b.Scan(events, "events"), spec);
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(join, &plan).ok());
    return plan;
  };
  const Table *es = nullptr, *ep = nullptr, *dsh = nullptr, *dpl = nullptr;
  ASSERT_TRUE(sharded_.GetTable("events", &es).ok());
  ASSERT_TRUE(plain_.GetTable("events", &ep).ok());
  ASSERT_TRUE(sharded_.GetTable("dims", &dsh).ok());
  ASSERT_TRUE(plain_.GetTable("dims", &dpl).ok());
  ASSERT_TRUE(sharded_.ExecutePlan("cj", build(es, dsh)).ok());
  ASSERT_TRUE(plain_.ExecutePlan("cj", build(ep, dpl)).ok());
  const Table *os = nullptr, *op = nullptr;
  ASSERT_TRUE(sharded_.GetResult("cj", &os).ok());
  ASSERT_TRUE(plain_.GetResult("cj", &op).ok());
  ExpectSameTable(*os, *op);
  for (const char* rel : {"events", "dims"}) {
    for (rid_t r = 0; r < os->num_rows(); ++r) {
      std::vector<rid_t> bs, bp;
      ASSERT_TRUE(sharded_.Backward("cj", rel, {r}, &bs, false).ok());
      ASSERT_TRUE(plain_.Backward("cj", rel, {r}, &bp, false).ok());
      EXPECT_EQ(bs, bp) << rel << " backward of output " << r;
    }
  }
}

TEST_F(ShardEngineTest, ShardLifecycleGuards) {
  EXPECT_FALSE(sharded_.ShardTable("nope", ShardingSpec::Hash(0, 2)).ok());
  // String column refused.
  EXPECT_EQ(sharded_.ShardTable("events", ShardingSpec::Hash(2, 2)).code(),
            Status::Code::kInvalidArgument);

  const Table* t = nullptr;
  ASSERT_TRUE(sharded_.GetTable("events", &t).ok());
  ASSERT_TRUE(sharded_.ExecutePlan("by_g", ByG(t)).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(sharded_.GetResult("by_g", &out).ok());
  ASSERT_EQ(out->num_rows(), 5u);  // g in 0..4
  std::vector<rid_t> all_groups = {0, 1, 2, 3, 4};
  std::vector<rid_t> before;
  ASSERT_TRUE(sharded_.Backward("by_g", "events", all_groups, &before).ok());
  TraceResult trace_before;
  ASSERT_TRUE(
      sharded_.TraceBackward("by_g", "events", all_groups, &trace_before)
          .ok());
  const Table& rows_before = trace_before.rows;

  // The retained result holds nothing of the ShardMap it executed over:
  // re-sharding with a different spec and unsharding both go ahead, and its
  // traces are unchanged after each.
  auto expect_unchanged = [&](const char* step) {
    std::vector<rid_t> rids;
    ASSERT_TRUE(sharded_.Backward("by_g", "events", all_groups, &rids).ok());
    EXPECT_EQ(rids, before) << step;
    TraceResult trace;
    ASSERT_TRUE(
        sharded_.TraceBackward("by_g", "events", all_groups, &trace).ok());
    const Table& rows = trace.rows;
    ASSERT_EQ(rows.num_rows(), rows_before.num_rows()) << step;
    EXPECT_EQ(rows.column(0).ints(), rows_before.column(0).ints()) << step;
    EXPECT_EQ(rows.column(1).ints(), rows_before.column(1).ints()) << step;
    EXPECT_EQ(rows.column(2).doubles(), rows_before.column(2).doubles())
        << step;
  };
  ASSERT_TRUE(sharded_.ShardTable("events", ShardingSpec::Range(1, 3)).ok());
  expect_unchanged("re-shard");
  ASSERT_TRUE(sharded_.UnshardTable("events").ok());
  expect_unchanged("unshard");
  EXPECT_EQ(sharded_.UnshardTable("events").code(),  // already unsharded
            Status::Code::kNotFound);

  // Unsharded again: plans execute and trace normally.
  ASSERT_TRUE(sharded_.ExecutePlan("again", ByG(t)).ok());
  std::vector<rid_t> rids;
  ASSERT_TRUE(sharded_.Backward("again", "events", all_groups, &rids).ok());
  EXPECT_EQ(rids, before);
}

TEST_F(ShardEngineTest, AppendRefusedAtomicallyWhileShardedResultRetained) {
  // Executed with refresh state requested: a sharded result still carries
  // none, so an append to a table it reads is refused before any row lands
  // — both while the table is sharded and after it is unsharded.
  const Table* t = nullptr;
  ASSERT_TRUE(sharded_.GetTable("events", &t).ok());
  CaptureOptions opts = CaptureOptions::Inject();
  opts.retain_refresh_state = true;
  ASSERT_TRUE(sharded_.ExecutePlan("by_g", ByG(t), opts).ok());
  const PlanResult* pr = nullptr;
  ASSERT_TRUE(sharded_.GetPlanResult("by_g", &pr).ok());
  EXPECT_EQ(pr->refresh, nullptr);

  const Table delta = MakeEvents();
  const size_t rows = t->num_rows();
  EXPECT_EQ(sharded_.AppendRows("events", delta).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(t->num_rows(), rows);

  ASSERT_TRUE(sharded_.UnshardTable("events").ok());
  Status st = sharded_.AppendRows("events", delta);
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(st.message().find("by_g"), std::string::npos) << st.message();
  EXPECT_EQ(t->num_rows(), rows);

  // A table that was never sharded but feeds a sharded result (the
  // broadcast build side of a join) is refused the same way.
  Schema ds;
  ds.AddField("k", DataType::kInt64);
  ds.AddField("w", DataType::kFloat64);
  Table dims(ds);
  for (int64_t k = 0; k < 8; ++k) dims.AppendRow({k, static_cast<double>(k)});
  ASSERT_TRUE(sharded_.CreateTable("dims", dims).ok());
  ASSERT_TRUE(sharded_.ShardTable("events", ShardingSpec::Hash(0, 3)).ok());
  const Table* d = nullptr;
  ASSERT_TRUE(sharded_.GetTable("dims", &d).ok());
  PlanBuilder b;
  JoinSpec spec;
  spec.left_key_name = "k";
  spec.right_key_name = "k";
  spec.pk_build = true;
  LogicalPlan join;
  ASSERT_TRUE(
      b.Build(b.HashJoin(b.Scan(d, "dims"), b.Scan(t, "events"), spec), &join)
          .ok());
  ASSERT_TRUE(sharded_.ExecutePlan("j", join, opts).ok());
  st = sharded_.AppendRows("dims", dims);
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(st.message().find("'j'"), std::string::npos) << st.message();
  EXPECT_EQ(d->num_rows(), 8u);
  ASSERT_TRUE(sharded_.DropResult("j").ok());
  ASSERT_TRUE(sharded_.UnshardTable("events").ok());

  // Once the borrowers are gone the append goes through.
  ASSERT_TRUE(sharded_.DropResult("by_g").ok());
  ASSERT_TRUE(sharded_.AppendRows("events", delta).ok());
  EXPECT_EQ(t->num_rows(), 2 * rows);
}

TEST_F(ShardEngineTest, ExecuteQueryShardsLikeAPlan) {
  // TPC-H Q12 (lineitem ⋈ orders) issued through ExecuteQuery after
  // hash-sharding lineitem on l_orderkey: output and backward rids match an
  // unsharded engine.
  tpch::Database db = tpch::Generate(0.01);
  SmokeEngine sharded, plain;
  for (SmokeEngine* e : {&sharded, &plain}) {
    ASSERT_TRUE(e->CreateTable("lineitem", db.lineitem).ok());
    ASSERT_TRUE(e->CreateTable("orders", db.orders).ok());
  }
  ASSERT_TRUE(sharded
                  .ShardTable("lineitem",
                              ShardingSpec::Hash(tpch::kLOrderkey, 3))
                  .ok());
  for (SmokeEngine* e : {&sharded, &plain}) {
    SPJAQuery q12 = tpch::MakeQ12(db);
    ASSERT_TRUE(e->GetTable("lineitem", &q12.fact).ok());
    ASSERT_TRUE(e->GetTable("orders", &q12.dims[0].table).ok());
    ASSERT_TRUE(e->ExecuteQuery("q12", q12).ok());
  }

  const Table *os = nullptr, *op = nullptr;
  ASSERT_TRUE(sharded.GetResult("q12", &os).ok());
  ASSERT_TRUE(plain.GetResult("q12", &op).ok());
  ASSERT_GT(op->num_rows(), 0u);
  ExpectSameTable(*os, *op);
  for (const char* relation : {"lineitem", "orders"}) {
    for (rid_t r = 0; r < op->num_rows(); ++r) {
      std::vector<rid_t> bs, bp;
      ASSERT_TRUE(sharded.Backward("q12", relation, {r}, &bs, false).ok());
      ASSERT_TRUE(plain.Backward("q12", relation, {r}, &bp, false).ok());
      EXPECT_EQ(bs, bp) << relation << " backward of output " << r;
    }
  }
  std::vector<rid_t> bs, bp;
  std::vector<rid_t> seeds(op->num_rows());
  for (rid_t r = 0; r < op->num_rows(); ++r) seeds[r] = r;
  ASSERT_TRUE(sharded.Backward("q12", "lineitem", seeds, &bs).ok());
  ASSERT_TRUE(plain.Backward("q12", "lineitem", seeds, &bp).ok());
  EXPECT_EQ(bs, bp);
}

}  // namespace
}  // namespace smoke
