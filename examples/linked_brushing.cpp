// Linked brushing (the paper's Figure 1): two visualization views are
// generated from queries that share an input relation. Selecting marks in
// one view highlights the marks of the other view that derive from the same
// input records — a backward lineage query followed by a forward one.
//
// The second half shows the same interaction over *retained plans* with
// PlanCrossfilter: any view shape (here an aggregate-over-aggregate rollup)
// participates in linked brushing, answered by probing the brushed view's
// backward index once and every other view's forward index.
//
//   $ ./example_linked_brushing
#include <cstdio>
#include <set>

#include "apps/plan_crossfilter.h"
#include "engine/spja.h"
#include "query/lineage_query.h"
#include "workloads/zipf_table.h"

using namespace smoke;

int main() {
  // Shared input relation X: products with price-band and margin-band
  // attributes (id, z = price band, v = revenue).
  Table x = MakeZipfTable(10000, 8, 0.8);

  // View V1: revenue by price band (a scatter/bar per band).
  SPJAQuery v1q;
  v1q.fact = &x;
  v1q.fact_name = "X";
  v1q.group_by = {ColRef::Fact(zipf_table::kZ)};
  v1q.aggs = {AggSpec::Sum(ScalarExpr::Col(zipf_table::kV), "revenue"),
              AggSpec::Count("n")};
  auto v1 = SPJAExec(v1q, CaptureOptions::Inject());

  // View V2: counts by margin decile (derived from v).
  // We bin v into deciles by materializing a binned column first.
  Schema s2 = x.schema();
  Table x2(s2);
  for (rid_t r = 0; r < x.num_rows(); ++r) x2.AppendRowFrom(x, r);
  // Reuse v column as bin: floor(v / 10) in 0..9.
  for (auto& v : x2.mutable_column(zipf_table::kV).mutable_doubles()) {
    v = static_cast<double>(static_cast<int>(v / 10.0));
  }
  SPJAQuery v2q;
  v2q.fact = &x2;
  v2q.fact_name = "X";
  v2q.group_by = {ColRef::Fact(zipf_table::kV)};
  v2q.aggs = {AggSpec::Count("n")};
  auto v2 = SPJAExec(v2q, CaptureOptions::Inject());

  std::printf("V1 (revenue by price band): %zu marks\n",
              v1.output.num_rows());
  std::printf("V2 (count by margin decile): %zu marks\n",
              v2.output.num_rows());

  // User brushes marks {0, 2} in V1.
  std::vector<rid_t> brushed = {0, 2};
  std::printf("\nUser brushes V1 marks 0 and 2 (price bands %lld and %lld)\n",
              static_cast<long long>(v1.output.column(0).ints()[0]),
              static_cast<long long>(v1.output.column(0).ints()[2]));

  // backward_trace(V1' ⊆ V1, X): the shared input records.
  std::vector<rid_t> input_rids;
  SMOKE_CHECK(BackwardRidsChecked(v1.lineage, "X", brushed, /*dedup=*/true,
                                  &input_rids)
                  .ok());
  std::printf("Backward lineage: %zu input records\n", input_rids.size());

  // forward_trace(X' ⊆ X, V2): the linked marks in V2.
  std::vector<rid_t> linked;
  SMOKE_CHECK(
      ForwardRidsChecked(v2.lineage, "X", input_rids, /*dedup=*/true, &linked)
          .ok());
  std::set<rid_t> highlight(linked.begin(), linked.end());
  std::printf("Forward lineage: highlight %zu of %zu V2 marks: [",
              highlight.size(), v2.output.num_rows());
  bool first = true;
  for (rid_t m : highlight) {
    std::printf("%s%u", first ? "" : ", ", m);
    first = false;
  }
  std::printf("]\n");

  // ---- the same, over retained plans (any view shape) ----
  std::printf("\nLinked brushing over retained plans (PlanCrossfilter):\n");
  PlanCrossfilter session("X");
  {
    PlanBuilder b;
    GroupBySpec per_band;
    per_band.key_names = {"z"};
    per_band.aggs = {AggSpec::Sum(ScalarExpr::Col("v"), "revenue"),
                     AggSpec::Count("n")};
    LogicalPlan plan;
    SMOKE_CHECK(b.Build(b.GroupBy(b.Scan(&x, "X"), per_band), &plan).ok());
    SMOKE_CHECK(session.AddView("by_band", plan).ok());
  }
  {
    // A non-SPJA view: rollup of the per-band counts (bands grouped by how
    // many products they contain).
    PlanBuilder b;
    GroupBySpec per_band;
    per_band.key_names = {"z"};
    per_band.aggs = {AggSpec::Count("n")};
    int gb = b.GroupBy(b.Scan(&x, "X"), per_band);
    GroupBySpec by_count;
    by_count.key_names = {"n"};
    by_count.aggs = {AggSpec::Count("bands")};
    LogicalPlan plan;
    SMOKE_CHECK(b.Build(b.GroupBy(gb, by_count), &plan).ok());
    SMOKE_CHECK(session.AddView("band_sizes", plan).ok());
  }
  std::map<std::string, PlanCrossfilter::Linked> brush;
  SMOKE_CHECK(session.Brush("by_band", 0, &brush).ok());
  const auto& rollup = brush.at("band_sizes");
  std::printf("brushing by_band mark 0 links %zu band_sizes mark(s); "
              "witness counts:",
              rollup.rids.size());
  for (size_t i = 0; i < rollup.rids.size(); ++i) {
    std::printf(" mark %u x%lld", rollup.rids[i],
                static_cast<long long>(rollup.counts[i]));
  }
  std::printf("\n");
  return 0;
}
