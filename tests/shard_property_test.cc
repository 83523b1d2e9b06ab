// Property test for sharded execution: over randomly generated plan DAGs,
// ExecuteShardedPlan must produce bit-identical outputs AND bit-identical
// composed lineage to the unsharded executor, for every shard count and
// thread count.
//
// The generator is the optimizer property test's, with one twist: the value
// column is integer-valued, so partial-aggregate SUMs are exact under any
// association and the sharded exchange cannot drift in the last FP bit.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/executor.h"
#include "plan/plan.h"
#include "shard/coordinator.h"
#include "shard/shard_map.h"
#include "shard/sharded_table.h"

namespace smoke {
namespace {

/// Deterministic 64-bit LCG (MMIX constants) — a failing seed reproduces
/// exactly.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  int64_t IntIn(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                 hi - lo + 1));
  }
  bool Chance(uint32_t percent) { return Next() % 100 < percent; }

 private:
  uint64_t state_;
};

/// Key columns draw from a small domain so joins and group-bys fan out;
/// `v` is an integer-valued double so sums are exactly representable.
Table MakeRandomTable(Lcg* rng, size_t rows) {
  Schema s;
  s.AddField("k1", DataType::kInt64);
  s.AddField("k2", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({rng->IntIn(0, 7), rng->IntIn(0, 3),
                 static_cast<double>(rng->IntIn(0, 100))});
  }
  return t;
}

struct Sub {
  int id = -1;
  std::vector<DataType> types;
};

class PlanGen {
 public:
  PlanGen(Lcg* rng, const std::vector<Table>* tables)
      : rng_(rng), tables_(tables) {}

  Sub Gen(int budget) {
    Sub s = Leaf();
    while (budget-- > 0) s = Grow(std::move(s), budget);
    return s;
  }

  PlanBuilder* builder() { return &b_; }

 private:
  Sub Leaf() {
    size_t t = rng_->Below(tables_->size());
    Sub s;
    s.id = b_.Scan(&(*tables_)[t], "t" + std::to_string(t) + "_s" +
                                       std::to_string(scan_seq_++));
    s.types = {DataType::kInt64, DataType::kInt64, DataType::kFloat64};
    return s;
  }

  std::vector<int> IntCols(const Sub& s) const {
    std::vector<int> cols;
    for (size_t i = 0; i < s.types.size(); ++i) {
      if (s.types[i] == DataType::kInt64) cols.push_back(static_cast<int>(i));
    }
    return cols;
  }

  Predicate RandomPredicate(const Sub& s) {
    int col = static_cast<int>(rng_->Below(s.types.size()));
    const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe,
                         CmpOp::kEq, CmpOp::kNe};
    CmpOp op = ops[rng_->Below(6)];
    if (s.types[static_cast<size_t>(col)] == DataType::kInt64) {
      return Predicate::Int(col, op, rng_->IntIn(0, 7));
    }
    return Predicate::Double(col, op,
                             static_cast<double>(rng_->IntIn(0, 100)));
  }

  ScalarExpr RandomAggExpr(const Sub& s) {
    int col = static_cast<int>(rng_->Below(s.types.size()));
    if (rng_->Chance(30)) {
      // Folds to *2.0 — exact on integer-valued inputs.
      return ScalarExpr::Mul(
          ScalarExpr::Col(col),
          ScalarExpr::Add(ScalarExpr::Const(1.5), ScalarExpr::Const(0.5)));
    }
    return ScalarExpr::Col(col);
  }

  Sub Grow(Sub s, int budget) {
    switch (rng_->Below(7)) {
      case 0: {  // select
        std::vector<Predicate> preds;
        size_t n = rng_->Below(3);
        for (size_t i = 0; i < n; ++i) preds.push_back(RandomPredicate(s));
        s.id = b_.Select(s.id, std::move(preds));
        return s;
      }
      case 1: {  // project
        std::vector<int> cols;
        size_t n = 1 + rng_->Below(s.types.size());
        std::vector<DataType> types;
        for (size_t i = 0; i < n; ++i) {
          int c = static_cast<int>(rng_->Below(s.types.size()));
          cols.push_back(c);
          types.push_back(s.types[static_cast<size_t>(c)]);
        }
        s.id = b_.Project(s.id, std::move(cols));
        s.types = std::move(types);
        return s;
      }
      case 2: {  // derive a raw int64 grouping key
        std::vector<int> ints = IntCols(s);
        if (ints.empty()) return s;
        int c = ints[rng_->Below(ints.size())];
        s.id = b_.Derive(
            s.id, {GroupExpr::Raw(c, "d" + std::to_string(derive_seq_++))});
        s.types.push_back(DataType::kInt64);
        return s;
      }
      case 3: {  // group-by (exercises the partial-aggregate exchange)
        std::vector<int> ints = IntCols(s);
        if (ints.empty()) return s;
        GroupBySpec spec;
        spec.keys = {ints[rng_->Below(ints.size())]};
        spec.aggs = {AggSpec::Count("cnt"),
                     AggSpec::Sum(RandomAggExpr(s), "sum")};
        DataType key_type = s.types[static_cast<size_t>(spec.keys[0])];
        s.id = b_.GroupBy(s.id, std::move(spec));
        s.types = {key_type, DataType::kInt64, DataType::kFloat64};
        return s;
      }
      case 4: {  // hash join (broadcast or co-located build)
        Sub other = Gen(budget > 1 ? 1 : 0);
        std::vector<int> li = IntCols(s), ri = IntCols(other);
        if (li.empty() || ri.empty()) return s;
        JoinSpec spec;
        spec.left_key = li[rng_->Below(li.size())];
        spec.right_key = ri[rng_->Below(ri.size())];
        s.id = b_.HashJoin(s.id, other.id, spec);
        std::vector<DataType> types = s.types;
        types.insert(types.end(), other.types.begin(), other.types.end());
        s.types = std::move(types);
        return s;
      }
      case 5: {  // set op over two scans of the same table
        size_t t = rng_->Below(tables_->size());
        auto scan = [&] {
          Sub x;
          x.id = b_.Scan(&(*tables_)[t], "t" + std::to_string(t) + "_s" +
                                             std::to_string(scan_seq_++));
          x.types = {DataType::kInt64, DataType::kInt64, DataType::kFloat64};
          if (rng_->Chance(50)) {
            x.id = b_.Select(x.id, {RandomPredicate(x)});
          }
          return x;
        };
        Sub left = scan(), right = scan();
        const SetOpKind kinds[] = {SetOpKind::kSetUnion, SetOpKind::kBagUnion,
                                   SetOpKind::kSetIntersect,
                                   SetOpKind::kBagIntersect,
                                   SetOpKind::kSetDifference};
        SetOpKind kind = kinds[rng_->Below(5)];
        if (kind == SetOpKind::kBagUnion) {
          s.types = left.types;
          s.id = b_.SetOp(kind, left.id, right.id, std::vector<int>{});
        } else {
          std::vector<int> cols = {0, static_cast<int>(1 + rng_->Below(2))};
          std::vector<DataType> types;
          for (int c : cols) {
            types.push_back(left.types[static_cast<size_t>(c)]);
          }
          s.id = b_.SetOp(kind, left.id, right.id, std::move(cols));
          s.types = std::move(types);
        }
        return s;
      }
      default: {  // DAG sharing: join two group-bys over the same subplan
        std::vector<int> ints = IntCols(s);
        if (ints.empty()) return s;
        int key = ints[rng_->Below(ints.size())];
        GroupBySpec g1;
        g1.keys = {key};
        g1.aggs = {AggSpec::Count("c1")};
        GroupBySpec g2;
        g2.keys = {key};
        g2.aggs = {AggSpec::Sum(RandomAggExpr(s), "s2")};
        int a1 = b_.GroupBy(s.id, std::move(g1));
        int a2 = b_.GroupBy(s.id, std::move(g2));
        JoinSpec spec;
        spec.left_key = 0;
        spec.right_key = 0;
        s.id = b_.HashJoin(a1, a2, spec);
        s.types = {DataType::kInt64, DataType::kInt64, DataType::kInt64,
                   DataType::kFloat64};
        return s;
      }
    }
  }

  Lcg* rng_;
  const std::vector<Table>* tables_;
  PlanBuilder b_;
  int scan_seq_ = 0;
  int derive_seq_ = 0;
};

void ExpectBitIdentical(const PlanResult& a, const PlanResult& b,
                        const std::string& ctx) {
  ASSERT_EQ(a.output.num_columns(), b.output.num_columns()) << ctx;
  ASSERT_EQ(a.output.num_rows(), b.output.num_rows()) << ctx;
  for (size_t c = 0; c < a.output.num_columns(); ++c) {
    const Column& x = a.output.column(c);
    const Column& y = b.output.column(c);
    ASSERT_EQ(x.type(), y.type()) << ctx << " col " << c;
    switch (x.type()) {
      case DataType::kInt64:
        ASSERT_EQ(x.ints(), y.ints()) << ctx << " col " << c;
        break;
      case DataType::kFloat64:
        ASSERT_EQ(x.doubles().size(), y.doubles().size()) << ctx << " col "
                                                          << c;
        if (!x.doubles().empty()) {
          ASSERT_EQ(0, std::memcmp(x.doubles().data(), y.doubles().data(),
                                   x.doubles().size() * sizeof(double)))
              << ctx << " col " << c;
        }
        break;
      case DataType::kString:
        ASSERT_EQ(x.strings(), y.strings()) << ctx << " col " << c;
        break;
    }
  }
  ASSERT_EQ(a.lineage.num_inputs(), b.lineage.num_inputs()) << ctx;
  ASSERT_EQ(a.lineage.output_cardinality(), b.lineage.output_cardinality())
      << ctx;
  for (size_t i = 0; i < a.lineage.num_inputs(); ++i) {
    const TableLineage& x = a.lineage.input(i);
    const TableLineage& y = b.lineage.input(i);
    ASSERT_EQ(x.table_name, y.table_name) << ctx;
    for (auto dir : {&TableLineage::backward, &TableLineage::forward}) {
      const LineageIndex& ix = x.*dir;
      const LineageIndex& iy = y.*dir;
      ASSERT_EQ(ix.size(), iy.size()) << ctx << " " << x.table_name;
      std::vector<rid_t> lx, ly;
      for (size_t p = 0; p < ix.size(); ++p) {
        lx.clear();
        ly.clear();
        ix.TraceInto(static_cast<rid_t>(p), &lx);
        iy.TraceInto(static_cast<rid_t>(p), &ly);
        ASSERT_EQ(lx, ly) << ctx << " " << x.table_name << " pos " << p;
      }
    }
  }
}

TEST(ShardProperty, RandomPlansBitIdenticalShardedAndUnsharded) {
  Lcg table_rng(2018);
  std::vector<Table> tables;
  tables.push_back(MakeRandomTable(&table_rng, 200));
  tables.push_back(MakeRandomTable(&table_rng, 120));

  // One ShardedTable per (table, shard count); hash on k1 for the first
  // table, range on k2 for the second so both partitioners see traffic.
  const uint32_t kShardCounts[] = {1, 2, 5};
  std::vector<std::vector<ShardedTable>> sharded(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    for (uint32_t n : kShardCounts) {
      ShardingSpec spec =
          t == 0 ? ShardingSpec::Hash(0, n) : ShardingSpec::Range(1, n);
      ShardedTable st;
      ASSERT_TRUE(ShardedTable::Create(&tables[t], spec, &st).ok());
      sharded[t].push_back(std::move(st));
    }
  }

  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Lcg rng(seed * 7919);
    PlanGen gen(&rng, &tables);
    Sub root = gen.Gen(2 + static_cast<int>(rng.Below(5)));
    LogicalPlan plan;
    ASSERT_TRUE(gen.builder()->Build(root.id, &plan).ok())
        << "seed " << seed << "\n"
        << plan.ToString();

    for (int threads : {1, 7}) {
      CaptureOptions opts = CaptureOptions::Inject();
      opts.num_threads = threads;
      PlanResult ref;
      ASSERT_TRUE(ExecutePlan(plan, opts, &ref).ok()) << "seed " << seed;

      for (size_t si = 0; si < 3; ++si) {
        const uint32_t n = kShardCounts[si];
        std::string ctx = "seed " + std::to_string(seed) + " threads " +
                          std::to_string(threads) + " shards " +
                          std::to_string(n) + "\n" + plan.ToString();
        ShardResolver resolver;
        for (size_t t = 0; t < tables.size(); ++t) {
          resolver[&tables[t]] = &sharded[t][si];
        }
        PlanResult sp;
        ASSERT_TRUE(ExecuteShardedPlan(plan, resolver, opts, &sp).ok())
            << ctx;
        ExpectBitIdentical(sp, ref, ctx);
      }
    }
  }
}

}  // namespace
}  // namespace smoke
