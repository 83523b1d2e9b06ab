// Composable lineage-instrumented plans: build operator DAGs that the
// monolithic SPJA block cannot express, capture lineage end-to-end, and ask
// lineage queries through the engine facade.
//
//   $ ./example_composable_plans
#include <cstdio>

#include "core/smoke_engine.h"
#include "plan/executor.h"
#include "plan/plan.h"

using namespace smoke;

// Every engine call returns a [[nodiscard]] Status; an example that dropped
// one would not compile (-Werror=unused-result).
#define OR_DIE(expr)                                              \
  do {                                                            \
    Status _st = (expr);                                          \
    if (!_st.ok()) {                                              \
      std::printf("%s failed: %s\n", #expr, _st.ToString().c_str()); \
      return 1;                                                   \
    }                                                             \
  } while (0)

int main() {
  SmokeEngine engine;

  // 1. Base relation: sales(region_id, amount).
  Schema schema;
  schema.AddField("region_id", DataType::kInt64);
  schema.AddField("amount", DataType::kFloat64);
  Table sales(schema);
  const int64_t regions[] = {0, 1, 2, 0, 1, 2, 3, 0, 1, 0, 3, 2};
  for (int i = 0; i < 12; ++i) {
    sales.AppendRow({regions[i], static_cast<double>(i + 1)});
  }
  OR_DIE(engine.CreateTable("sales", std::move(sales)));
  const Table* base = nullptr;
  OR_DIE(engine.GetTable("sales", &base));

  // 2. An aggregate-over-aggregate rollup: COUNT/SUM per region, then
  //    regroup the regions by their sales count. Every operator captures
  //    its own lineage fragment; the executor composes them end-to-end.
  PlanBuilder b;
  int scan = b.Scan(base, "sales");
  GroupBySpec per_region;
  per_region.key_names = {"region_id"};
  per_region.aggs = {AggSpec::Count("cnt"),
                     AggSpec::Sum(ScalarExpr::Col("amount"), "sum_amount")};
  int gb1 = b.GroupBy(scan, per_region);
  GroupBySpec by_count;
  by_count.key_names = {"cnt"};  // the cnt column of the intermediate
  by_count.aggs = {AggSpec::Count("regions"),
                   AggSpec::Sum(ScalarExpr::Col("sum_amount"), "total")};
  int root = b.GroupBy(gb1, by_count);

  LogicalPlan plan;
  Status st = b.Build(root, &plan);
  if (!st.ok()) {
    std::printf("plan build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Plan:\n%s\n", plan.ToString().c_str());

  st = engine.ExecutePlan("rollup", plan, CaptureMode::kInject);
  if (!st.ok()) {
    std::printf("execute failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const Table* out = nullptr;
  OR_DIE(engine.GetResult("rollup", &out));
  std::printf("Rollup result:\n%s\n", out->ToString().c_str());

  // 3. Backward lineage of the first rollup row reaches the *base* sales
  //    rows, straight through both aggregations.
  TraceResult behind;
  OR_DIE(engine.TraceBackward("rollup", "sales", {0}, &behind));
  std::printf("Base rows behind rollup row 0:\n%s\n",
              behind.rows.ToString().c_str());

  // 4. Linked brushing across two independent views of the same relation
  //    (one of them a plan, the other a legacy SPJA query).
  SPJAQuery by_region_spja;
  by_region_spja.fact = base;
  by_region_spja.fact_name = "sales";
  by_region_spja.group_by = {ColRef::Fact(0)};
  by_region_spja.aggs = {AggSpec::Count("cnt")};
  OR_DIE(engine.ExecuteQuery("by_region", by_region_spja));

  //    Lf(Lb(row 0, sales), by_region) is one two-hop trace plan.
  TraceSource rollup_src, by_region_src;
  OR_DIE(engine.MakeTraceSource("rollup", &rollup_src));
  OR_DIE(engine.MakeTraceSource("by_region", &by_region_src));
  PlanResult linked;
  OR_DIE(TraceBuilder::Backward(rollup_src, "sales", {0})
             .ThenForward(by_region_src)
             .Execute(CaptureOptions::None(), &linked));
  std::printf("Rollup row 0 brushes %zu region bars in the other view\n",
              linked.output.num_rows());
  return 0;
}
