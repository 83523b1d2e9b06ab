// Sharded execution (shard/coordinator.h): ShardMap codec round-trips,
// range/hash slicing, bit-identical sharded vs unsharded results and lineage
// for the gather, exchange, broadcast and co-located join paths, selective
// backward-trace fan-out, the engine's shard lifecycle guards, and SPJA
// queries (ExecuteQuery) routed through the coordinator like any plan.
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "optimizer/cost.h"
#include "shard/coordinator.h"
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

TEST(CostShardTraceTest, FewSeedsFanOutManySeedsComposed) {
  // One seed against many shards: fan-out probes ~1 shard, composed pays
  // all of them.
  ShardTraceCostReport few = CostShardTrace(1, 16, 100000);
  EXPECT_TRUE(few.use_fan_out);
  EXPECT_LT(few.expected_shards, 2.0);
  // Seeds >> shards: every shard is expected to be touched anyway, and the
  // fan-out's per-seed decode overhead loses.
  ShardTraceCostReport many = CostShardTrace(50000, 4, 100000);
  EXPECT_FALSE(many.use_fan_out);
  EXPECT_GT(many.expected_shards, 3.9);
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
      std::vector<rid_t> fs, fp;
      ASSERT_TRUE(sharded_.Forward(name, "events", {r}, &fs).ok());
      ASSERT_TRUE(plain_.Forward(name, "events", {r}, &fp).ok());
      EXPECT_EQ(fs, fp) << name << " forward of input " << r;
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

TEST_F(ShardEngineTest, BackwardShardedVisitsOnlyTouchedShards) {
  const Table* t = nullptr;
  ASSERT_TRUE(sharded_.GetTable("events", &t).ok());
  PlanBuilder b;
  GroupBySpec spec;
  spec.key_names = {"g"};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(b.GroupBy(b.Scan(t, "events"), spec), &plan).ok());
  ASSERT_TRUE(sharded_.ExecutePlan("by_g", plan).ok());
  const Table* out = nullptr;
  ASSERT_TRUE(sharded_.GetResult("by_g", &out).ok());
  ASSERT_EQ(out->num_rows(), 5u);  // g in 0..4

  // All rows of one g block share the sharding key, so tracing one group
  // must probe exactly one of the 5 shards.
  ShardTraceStats one;
  std::vector<rid_t> rids, composed;
  ASSERT_TRUE(
      sharded_.BackwardSharded("by_g", "events", {0}, &rids, &one).ok());
  EXPECT_EQ(one.shards_total, 5u);
  EXPECT_EQ(one.shards_visited, 1u);
  EXPECT_EQ(one.rids_traced, 20u);
  ASSERT_TRUE(sharded_.Backward("by_g", "events", {0}, &composed).ok());
  EXPECT_EQ(rids, composed);

  // Tracing every group touches exactly the shards hosting the 5 g values.
  std::set<uint32_t> expect;
  for (int64_t g = 0; g < 5; ++g) expect.insert(ShardOfHash(g, 5));
  ShardTraceStats all;
  ASSERT_TRUE(
      sharded_.BackwardSharded("by_g", "events", {0, 1, 2, 3, 4}, &rids, &all)
          .ok());
  EXPECT_EQ(all.shards_visited, expect.size());
  ASSERT_TRUE(
      sharded_.Backward("by_g", "events", {0, 1, 2, 3, 4}, &composed).ok());
  EXPECT_EQ(rids, composed);

  // Duplicate-preserving traces agree too.
  ASSERT_TRUE(sharded_
                  .BackwardSharded("by_g", "events", {2, 2, 0}, &rids,
                                   nullptr, /*dedup=*/false)
                  .ok());
  ASSERT_TRUE(
      sharded_.Backward("by_g", "events", {2, 2, 0}, &composed, false).ok());
  EXPECT_EQ(rids, composed);

  // Wrong relation / unknown query are clear errors, not aborts.
  EXPECT_FALSE(
      sharded_.BackwardSharded("by_g", "nope", {0}, &rids, nullptr).ok());
  EXPECT_FALSE(
      sharded_.BackwardSharded("nope", "events", {0}, &rids, nullptr).ok());
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
  PlanBuilder b;
  GroupBySpec spec;
  spec.key_names = {"g"};
  spec.aggs = {AggSpec::Count("cnt")};
  LogicalPlan plan;
  ASSERT_TRUE(b.Build(b.GroupBy(b.Scan(t, "events"), spec), &plan).ok());
  ASSERT_TRUE(sharded_.ExecutePlan("by_g", plan).ok());

  // The retained result borrows the current ShardMap: re-shard and unshard
  // are refused until it is dropped.
  Status st = sharded_.ShardTable("events", ShardingSpec::Hash(1, 3));
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("by_g"), std::string::npos) << st.message();
  EXPECT_FALSE(sharded_.UnshardTable("events").ok());

  ASSERT_TRUE(sharded_.DropResult("by_g").ok());
  EXPECT_TRUE(sharded_.ShardTable("events", ShardingSpec::Range(1, 3)).ok());
  EXPECT_TRUE(sharded_.UnshardTable("events").ok());
  EXPECT_FALSE(sharded_.UnshardTable("events").ok());  // already unsharded

  // Unsharded again: plans execute and trace normally.
  ASSERT_TRUE(sharded_.ExecutePlan("again", plan).ok());
  std::vector<rid_t> rids;
  EXPECT_TRUE(sharded_.Backward("again", "events", {0}, &rids).ok());
  // ...but the fan-out entry point now has no shard state to pin.
  EXPECT_FALSE(
      sharded_.BackwardSharded("again", "events", {0}, &rids, nullptr).ok());
}

TEST_F(ShardEngineTest, ExecuteQueryShardsLikeAPlan) {
  // TPC-H Q12 (lineitem ⋈ orders) issued through ExecuteQuery after
  // hash-sharding lineitem on l_orderkey: output and backward rids match an
  // unsharded engine, and the result carries shard fan-out state.
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
  std::vector<rid_t> fan_out, composed;
  ShardTraceStats stats;
  ASSERT_TRUE(
      sharded.BackwardSharded("q12", "lineitem", {0}, &fan_out, &stats).ok());
  ASSERT_TRUE(plain.Backward("q12", "lineitem", {0}, &composed).ok());
  EXPECT_EQ(fan_out, composed);
  EXPECT_EQ(stats.shards_total, 3u);
}

}  // namespace
}  // namespace smoke
