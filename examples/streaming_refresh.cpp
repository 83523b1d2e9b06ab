// Refresh and forward propagation (the paper's query-model footnote):
// maintain a live aggregation view over a growing, changing table without
// re-running the query — new rows fold into the retained hash table
// (RefreshAppend) and in-place updates recompute only the affected output
// groups via forward lineage (ForwardPropagate).
//
//   $ ./example_streaming_refresh
#include <cstdio>

#include "common/timer.h"
#include "refresh/refresh.h"
#include "workloads/zipf_table.h"

using namespace smoke;

int main() {
  Table events = MakeZipfTable(200000, 16, 1.0);

  GroupBySpec spec;
  spec.key_names = {"z"};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col("v"), "sum_v"),
               AggSpec::Avg(ScalarExpr::Col("v"), "avg_v")};

  WallTimer timer;
  auto view = GroupByExec(events, "events", spec, CaptureOptions::Inject());
  std::printf("Initial view over %zu rows: %zu groups in %.1f ms\n",
              events.num_rows(), view.output.num_rows(), timer.ElapsedMs());

  // A batch of new events arrives.
  Table batch = MakeZipfTable(5000, 24, 0.8, 99);
  rid_t first_new = static_cast<rid_t>(events.num_rows());
  for (rid_t r = 0; r < batch.num_rows(); ++r) events.AppendRowFrom(batch, r);

  timer.Start();
  std::vector<rid_t> changed;
  Status st = RefreshAppend(&view, events, first_new, &changed);
  if (!st.ok()) {
    std::fprintf(stderr, "RefreshAppend: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("RefreshAppend of %zu rows: %zu groups updated in %.2f ms "
              "(now %zu groups)\n",
              batch.num_rows(), changed.size(), timer.ElapsedMs(),
              view.output.num_rows());

  // A correction: three rows' values change in place.
  std::vector<rid_t> corrected = {10, 1000, 150000};
  for (rid_t r : corrected) {
    events.mutable_column(zipf_table::kV).mutable_doubles()[r] = 0.0;
  }
  timer.Start();
  std::vector<rid_t> affected;
  st = ForwardPropagate(&view, events, corrected, &affected);
  if (!st.ok()) {
    std::fprintf(stderr, "ForwardPropagate: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("ForwardPropagate of 3 corrections: %zu groups recomputed via "
              "their backward lineage in %.2f ms\n",
              affected.size(), timer.ElapsedMs());

  // Compare against a full re-run.
  timer.Start();
  auto full = GroupByExec(events, "events", spec, CaptureOptions::Inject());
  std::printf("(full recompute for comparison: %.1f ms)\n",
              timer.ElapsedMs());

  std::printf("\nView after maintenance:\n%s\n", view.output.ToString(8).c_str());
  return 0;
}
