// The "Overview first, zoom and filter, details on demand" drill-down of
// the paper's Section 6.4, on TPC-H: Q1 is the overview; Q1a drills into
// one bar by (year, month) through the bar's backward lineage index; Q1b
// filters with parameterized predicates (answered from a data-skipping
// partitioned index); details-on-demand is a plain backward lineage query.
// Every drill-down is a TraceBuilder lineage query with an explicit
// physical strategy.
//
//   $ ./example_tpch_drilldown
#include <cstdio>

#include "common/timer.h"
#include "engine/spja.h"
#include "query/lineage_query.h"
#include "query/trace_builder.h"
#include "workloads/tpch.h"

using namespace smoke;

int main() {
  std::printf("Generating TPC-H (SF 0.05)...\n");
  tpch::Database db = tpch::Generate(0.05);
  SPJAQuery q1 = tpch::MakeQ1(db);

  // Overview: Q1 with lineage capture, and once more with data-skipping
  // partitioning on the attributes the filter widgets will use (the
  // partitioned index replaces the plain backward index).
  WallTimer timer;
  auto base = SPJAExec(q1, CaptureOptions::Inject());
  std::printf("Q1 overview + capture: %.1f ms, %zu bars\n",
              timer.ElapsedMs(), base.output.num_rows());
  std::printf("%s\n", base.output.ToString().c_str());
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
  timer.Start();
  auto skip_base = SPJAExec(q1, CaptureOptions::Inject(), &push);
  std::printf("Q1 + skip partitioning: %.1f ms\n", timer.ElapsedMs());

  // Zoom: drill into bar 0 by (year, month) over its backward index.
  std::vector<rid_t> bar0;
  if (Status st = BackwardRidsChecked(base.lineage, "lineitem", {0},
                                      /*dedup=*/false, &bar0);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  PlanResult drill;
  timer.Start();
  Status st = TraceBuilder::Backward(TraceSource::FromPlan(base, "q1"),
                                     "lineitem", {0})
                  .Consuming(tpch::MakeQ1a(db))
                  .Strategy(TraceStrategy::kIndexed)
                  .Execute(CaptureOptions::None(), &drill);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Q1a drill-down (bar 0, %zu rows): %.1f ms, %zu (year, month) "
              "cells\n",
              bar0.size(), timer.ElapsedMs(), drill.output.num_rows());

  // Filter: the user sets shipmode=MAIL, shipinstruct=NONE on a widget.
  PlanResult filtered;
  timer.Start();
  st = TraceBuilder::Backward(TraceSource::FromPlan(skip_base, "q1skip"),
                              "lineitem", {0})
           .Consuming(tpch::MakeQ1b(db, "MAIL", "NONE"))
           .Strategy(TraceStrategy::kSkipping)
           .Execute(CaptureOptions::None(), &filtered);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Q1b with data skipping: %.2f ms, %zu cells (<150ms "
              "interactive)\n",
              timer.ElapsedMs(), filtered.output.num_rows());

  // Details on demand: materialize a few lineage rows of bar 0.
  std::vector<rid_t> sample(bar0.begin(),
                            bar0.begin() + std::min<size_t>(5, bar0.size()));
  Table details;
  if (Status mst = MaterializeRowsChecked(db.lineitem, sample, &details);
      !mst.ok()) {
    std::fprintf(stderr, "error: %s\n", mst.ToString().c_str());
    return 1;
  }
  std::printf("\nDetails on demand (5 of bar 0's input rows):\n%s\n",
              details.ToString().c_str());
  return 0;
}
