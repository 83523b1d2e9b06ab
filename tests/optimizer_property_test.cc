// Property test for the plan rewriter: over randomly generated plan DAGs,
// executing with the optimizer on must produce bit-identical outputs AND
// bit-identical composed lineage to executing the same plan with the
// optimizer off, single-threaded and morsel-parallel alike.
//
// The generator tracks output schemas while it builds, so every generated
// plan is valid by construction (the schema-inference pass must accept it);
// plans mix selects, projections, derives, group-bys, hash joins, set ops,
// and DAG-shared subplans to give every rewrite rule something to chew on.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "query/trace_builder.h"

namespace smoke {
namespace {

/// Deterministic 64-bit LCG (MMIX constants) — no global RNG state, so a
/// failing seed reproduces exactly.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  int64_t IntIn(int64_t lo, int64_t hi) {  // inclusive bounds
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                 hi - lo + 1));
  }
  double DoubleIn(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(Next() % 10000) / 10000.0);
  }
  bool Chance(uint32_t percent) { return Next() % 100 < percent; }

 private:
  uint64_t state_;
};

/// Base relation: key columns draw from a small domain so joins and
/// group-bys produce real fan-out.
Table MakeRandomTable(Lcg* rng, size_t rows) {
  Schema s;
  s.AddField("k1", DataType::kInt64);
  s.AddField("k2", DataType::kInt64);
  s.AddField("v", DataType::kFloat64);
  Table t(s);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({rng->IntIn(0, 7), rng->IntIn(0, 3),
                 rng->DoubleIn(0.0, 100.0)});
  }
  return t;
}

/// A subplan under construction: its builder node id and output schema
/// (types only — names don't affect execution).
struct Sub {
  int id = -1;
  std::vector<DataType> types;
};

class PlanGen {
 public:
  PlanGen(Lcg* rng, const std::vector<Table>* tables)
      : rng_(rng), tables_(tables) {}

  /// Generates a full plan: a random subplan tree with a few growth steps.
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
    return Predicate::Double(col, op, rng_->DoubleIn(0.0, 100.0));
  }

  /// A scalar aggregate input over a numeric column; sometimes with a
  /// foldable constant subtree so fold_constants has work.
  ScalarExpr RandomAggExpr(const Sub& s) {
    int col = static_cast<int>(rng_->Below(s.types.size()));
    if (rng_->Chance(30)) {
      return ScalarExpr::Mul(
          ScalarExpr::Col(col),
          ScalarExpr::Add(ScalarExpr::Const(1.5), ScalarExpr::Const(0.5)));
    }
    return ScalarExpr::Col(col);
  }

  Sub Grow(Sub s, int budget) {
    switch (rng_->Below(7)) {
      case 0: {  // select (sometimes stacked, sometimes predicate-free)
        std::vector<Predicate> preds;
        size_t n = rng_->Below(3);  // 0..2 predicates
        for (size_t i = 0; i < n; ++i) preds.push_back(RandomPredicate(s));
        s.id = b_.Select(s.id, std::move(preds));
        return s;
      }
      case 1: {  // project: random non-empty column selection
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
      case 3: {  // group-by on a random int64 key
        std::vector<int> ints = IntCols(s);
        if (ints.empty()) return s;
        GroupBySpec spec;
        spec.keys = {ints[rng_->Below(ints.size())]};
        spec.aggs = {AggSpec::Count("cnt"),
                     AggSpec::Sum(RandomAggExpr(s), "sum")};
        DataType key_type =
            s.types[static_cast<size_t>(spec.keys[0])];
        s.id = b_.GroupBy(s.id, std::move(spec));
        s.types = {key_type, DataType::kInt64, DataType::kFloat64};
        return s;
      }
      case 4: {  // hash join against a fresh subplan on int64 keys
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
          for (int c : cols) types.push_back(left.types[static_cast<size_t>(c)]);
          s.id = b_.SetOp(kind, left.id, right.id, std::move(cols));
          s.types = std::move(types);
        }
        return s;
      }
      default: {  // DAG sharing: join two group-bys over the same subplan
        std::vector<int> ints = IntCols(s);
        if (ints.empty()) return s;
        int key = ints[rng_->Below(ints.size())];
        GroupBySpec g1{{key}, {AggSpec::Count("c1")}};
        GroupBySpec g2{{key}, {AggSpec::Sum(RandomAggExpr(s), "s2")}};
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
    ASSERT_EQ(x.backward.kind(), y.backward.kind()) << ctx << " "
                                                    << x.table_name;
    ASSERT_EQ(x.forward.kind(), y.forward.kind()) << ctx << " "
                                                  << x.table_name;
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

TEST(OptimizerProperty, RandomPlansBitIdenticalOnAndOff) {
  Lcg table_rng(2018);
  std::vector<Table> tables;
  tables.push_back(MakeRandomTable(&table_rng, 200));
  tables.push_back(MakeRandomTable(&table_rng, 120));

  int optimized_plans = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Lcg rng(seed * 7919);
    PlanGen gen(&rng, &tables);
    Sub root = gen.Gen(2 + static_cast<int>(rng.Below(5)));
    LogicalPlan plan;
    ASSERT_TRUE(gen.builder()->Build(root.id, &plan).ok())
        << "seed " << seed << "\n"
        << plan.ToString();

    // The generator builds only well-typed plans: validation must agree.
    LogicalPlan rewritten;
    PlanExplain explain;
    ASSERT_TRUE(OptimizePlan(plan, &rewritten, &explain).ok())
        << "seed " << seed << "\n"
        << plan.ToString();
    if (!explain.rules.empty()) ++optimized_plans;

    for (int threads : {1, 7}) {
      CaptureOptions on = CaptureOptions::Inject();
      on.num_threads = threads;
      CaptureOptions off = on;
      off.optimize = false;

      PlanResult ron, roff;
      ASSERT_TRUE(ExecutePlan(plan, on, &ron).ok()) << "seed " << seed;
      ASSERT_TRUE(ExecutePlan(plan, off, &roff).ok()) << "seed " << seed;
      ExpectBitIdentical(
          ron, roff,
          "seed " + std::to_string(seed) + " threads " +
              std::to_string(threads) + "\n" + plan.ToString());
    }
  }
  // The run is only meaningful if a healthy share of plans got rewritten.
  EXPECT_GE(optimized_plans, 10);
}

// ---------------------------------------------------------------------------
// Fused trace aggregates: TraceBuilder drill-downs compiled with the
// rewriter (Trace → filters → GroupBy folded into one aggregating trace
// node) against the literal Trace → Select → Derive → GroupBy chain.
// ---------------------------------------------------------------------------

/// Columns of the drill-down relation: two small int keys, a yyyymmdd date,
/// a float value.
enum DrillCol : int { kDk1 = 0, kDk2, kDDate, kDVal };

Table MakeDrillTable(Lcg* rng, size_t rows) {
  Schema s;
  s.AddField("k1", DataType::kInt64);
  s.AddField("k2", DataType::kInt64);
  s.AddField("date", DataType::kInt64);
  s.AddField("val", DataType::kFloat64);
  Table t(s);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t date = rng->IntIn(1992, 1998) * 10000 +
                         rng->IntIn(1, 12) * 100 + rng->IntIn(1, 28);
    t.AppendRow({rng->IntIn(0, 5), rng->IntIn(0, 2), date,
                 rng->DoubleIn(0.0, 100.0)});
  }
  return t;
}

/// GROUP BY k1 over the relation, with COUNT and SUM(val), as an SPJA block
/// with no dimensions — optionally with its backward lineage partitioned on
/// k2 (the data-skipping push-down).
PlanResult RunBase(const Table* t, bool skip) {
  PlanBuilder b;
  SPJAQuery q;
  q.fact = t;
  q.fact_name = "t";
  q.group_by = {ColRef::Fact(kDk1)};
  q.aggs = {AggSpec::Count("cnt"),
            AggSpec::Sum(ScalarExpr::Col(kDVal), "sum_val")};
  SPJAPushdown push;
  if (skip) push.skip_cols = {kDk2};
  const int gb = b.SpjaBlock(std::move(q), push);
  LogicalPlan plan;
  SMOKE_CHECK(b.Build(gb, &plan).ok());
  PlanResult r;
  SMOKE_CHECK(ExecutePlan(plan, CaptureOptions::Inject(), &r).ok());
  return r;
}

/// Executes `b` compiled with and without the rewriter under `opts` and
/// expects bit-identical outputs and lineage. Returns the fused result.
PlanResult ExpectFusedMatchesLiteral(TraceBuilder b, const CaptureOptions& opts,
                                     const std::string& ctx) {
  LineageQuery fused, literal;
  EXPECT_TRUE(b.Optimize(true).Compile(&fused).ok()) << ctx;
  EXPECT_TRUE(b.Optimize(false).Compile(&literal).ok()) << ctx;
  PlanResult on, off;
  Status st_on = fused.Execute(opts, &on);
  Status st_off = literal.Execute(opts, &off);
  EXPECT_TRUE(st_on.ok()) << ctx << st_on.ToString();
  EXPECT_TRUE(st_off.ok()) << ctx << st_off.ToString();
  EXPECT_TRUE(fused.explain().HasRule("fuse_trace_aggregate"))
      << ctx << fused.explain().ToString();
  ExpectBitIdentical(on, off,
                     ctx + "\n" + fused.explain().ToString() +
                         literal.explain().plan_text);
  return on;
}

TEST(OptimizerProperty, FusedTraceAggregateBitIdenticalToLiteral) {
  Lcg table_rng(2024);
  const Table t = MakeDrillTable(&table_rng, 600);
  const PlanResult plain = RunBase(&t, /*skip=*/false);
  const PlanResult skip = RunBase(&t, /*skip=*/true);
  const TraceSource plain_src = TraceSource::FromPlan(plain, "plain");
  const TraceSource skip_src = TraceSource::FromPlan(skip, "skip");
  const rid_t groups = static_cast<rid_t>(plain.output.num_rows());
  ASSERT_GT(groups, 1u);

  int with_filters = 0, with_keys = 0, hops = 0, skipping = 0;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Lcg rng(seed * 104729);
    const size_t shape = rng.Below(3);  // indexed, skipping, forward hop
    std::vector<rid_t> seeds;
    for (size_t i = 0, n = 1 + rng.Below(3); i < n; ++i) {
      seeds.push_back(static_cast<rid_t>(rng.Below(groups)));
    }
    if (shape == 1) seeds.resize(1);
    TraceBuilder b = TraceBuilder::Backward(shape == 1 ? skip_src : plain_src,
                                            "t", seeds);
    if (shape == 0) b.Dedup(rng.Chance(50));
    if (shape == 1) {
      b.Strategy(TraceStrategy::kSkipping);
      b.Filter(Predicate::Int(kDk2, CmpOp::kEq, rng.IntIn(0, 2)));
      ++skipping;
    }

    // The endpoint: the relation, or — after a forward hop back into the
    // grouped view — the view's rows (k1, cnt, sum_val).
    int key_col = kDk1, int_col = kDk2, dbl_col = kDVal;
    if (shape == 2) {
      b.ThenForward(plain_src);
      key_col = 0;
      int_col = 1;
      dbl_col = 2;
      ++hops;
    }
    if (rng.Chance(60)) {
      ++with_filters;
      b.Filter(Predicate::Int(int_col, CmpOp::kLe, rng.IntIn(0, 150)));
      if (rng.Chance(50)) {
        b.Filter(Predicate::Double(dbl_col, CmpOp::kGe,
                                   rng.DoubleIn(0.0, 80.0)));
      }
    }
    const size_t key_shape = rng.Below(4);  // none, raw, derived, both
    if (key_shape != 0) ++with_keys;
    if (key_shape == 1 || key_shape == 3) {
      b.GroupBy(GroupExpr::Raw(key_col, "key"));
    }
    if (key_shape >= 2) {
      if (shape == 2) {
        b.GroupBy(GroupExpr::Scale100(dbl_col, "scaled"));
      } else {
        b.GroupBy(GroupExpr::Year(kDDate, "year"));
        b.GroupBy(GroupExpr::Month(kDDate, "month"));
      }
    }
    b.Agg(AggSpec::Count("n"));
    b.Agg(AggSpec::Sum(ScalarExpr::Col(dbl_col), "s"));
    if (rng.Chance(50)) b.Agg(AggSpec::Avg(ScalarExpr::Col(dbl_col), "a"));
    if (rng.Chance(50)) b.Agg(AggSpec::Min(ScalarExpr::Col(int_col), "lo"));

    for (int threads : {1, 3}) {
      for (CaptureMode mode : {CaptureMode::kNone, CaptureMode::kInject}) {
        CaptureOptions opts;
        opts.mode = mode;
        opts.num_threads = threads;
        ExpectFusedMatchesLiteral(
            b, opts,
            "seed " + std::to_string(seed) + " threads " +
                std::to_string(threads) +
                (mode == CaptureMode::kNone ? " none" : " inject"));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Every dimension of the generator was exercised.
  EXPECT_GE(with_filters, 10);
  EXPECT_GE(with_keys, 10);
  EXPECT_GE(hops, 5);
  EXPECT_GE(skipping, 5);
}

TEST(OptimizerProperty, FusedKeylessAggregateOverNoRowsEmitsNoRow) {
  Lcg table_rng(7);
  const Table t = MakeDrillTable(&table_rng, 200);
  const PlanResult plain = RunBase(&t, /*skip=*/false);
  for (CaptureMode mode : {CaptureMode::kNone, CaptureMode::kInject}) {
    CaptureOptions opts;
    opts.mode = mode;
    TraceBuilder b =
        TraceBuilder::Backward(TraceSource::FromPlan(plain, "plain"), "t", {0});
    b.Filter(Predicate::Int(kDk1, CmpOp::kLt, -1))  // nothing survives
        .Agg(AggSpec::Count("n"))
        .Agg(AggSpec::Sum(ScalarExpr::Col(kDVal), "s"));
    const PlanResult r = ExpectFusedMatchesLiteral(b, opts, "empty");
    EXPECT_EQ(r.output.num_rows(), 0u);
    EXPECT_EQ(r.output.num_columns(), 2u);
  }
}

TEST(OptimizerProperty, FusedTraceAggregateRefusesLogicCaptureLikeLiteral) {
  Lcg table_rng(9);
  const Table t = MakeDrillTable(&table_rng, 200);
  const PlanResult plain = RunBase(&t, /*skip=*/false);
  TraceBuilder b =
      TraceBuilder::Backward(TraceSource::FromPlan(plain, "plain"), "t", {0});
  b.GroupBy(GroupExpr::Raw(kDk2, "k2")).Agg(AggSpec::Count("n"));
  for (bool optimize : {true, false}) {
    LineageQuery q;
    ASSERT_TRUE(b.Optimize(optimize).Compile(&q).ok());
    EXPECT_EQ(q.explain().HasRule("fuse_trace_aggregate"), optimize);
    for (CaptureMode mode : {CaptureMode::kLogicRid, CaptureMode::kLogicTup,
                             CaptureMode::kLogicIdx}) {
      CaptureOptions opts;
      opts.mode = mode;
      PlanResult r;
      EXPECT_EQ(q.Execute(opts, &r).code(), Status::Code::kUnsupported)
          << (optimize ? "fused" : "literal");
    }
  }
}

}  // namespace
}  // namespace smoke
