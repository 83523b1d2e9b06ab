// The "Overview first, zoom and filter, details on demand" drill-down of
// the paper's Section 6.4, on TPC-H: Q1 is the overview; Q1a drills into
// one bar by (year, month); Q1b filters with parameterized predicates
// (answered from a data-skipping partitioned index); details-on-demand is a
// plain backward lineage query.
//
//   $ ./example_tpch_drilldown
#include <cstdio>

#include "common/timer.h"
#include "engine/spja.h"
#include "query/consuming.h"
#include "query/lineage_query.h"
#include "workloads/tpch.h"

using namespace smoke;

int main() {
  std::printf("Generating TPC-H (SF 0.05)...\n");
  tpch::Database db = tpch::Generate(0.05);
  SPJAQuery q1 = tpch::MakeQ1(db);

  // Overview: Q1 with lineage capture + data-skipping partitioning on the
  // attributes the filter widgets will use.
  SPJAPushdown push;
  push.skip_cols = {tpch::kLShipmode, tpch::kLShipinstruct};
  WallTimer timer;
  auto base = SPJAExec(q1, CaptureOptions::Inject(), &push);
  std::printf("Q1 overview + capture: %.1f ms, %zu bars\n",
              timer.ElapsedMs(), base.output.num_rows());
  std::printf("%s\n", base.output.ToString().c_str());

  // Zoom: drill into bar 0 by (year, month).
  ConsumingSpec q1a = tpch::MakeQ1a(db);
  std::vector<rid_t> bar0;
  base.skip_index.TraceAllInto(0, &bar0);
  timer.Start();
  auto drill = ConsumingOverRids(db.lineitem, q1a, bar0.data(), bar0.size(),
                                 /*capture_lineage=*/false);
  std::printf("Q1a drill-down (bar 0, %zu rows): %.1f ms, %zu (year, month) "
              "cells\n",
              bar0.size(), timer.ElapsedMs(), drill.output.num_rows());

  // Filter: the user sets shipmode=MAIL, shipinstruct=NONE on a widget.
  ConsumingSpec q1b = tpch::MakeQ1b(db, "MAIL", "NONE");
  uint32_t code = base.skip_dict.CodeForString("MAIL\x1fNONE");
  timer.Start();
  auto filtered = ConsumingSkipping(db.lineitem, base.skip_index, 0, code,
                                    q1b, /*capture_lineage=*/false);
  std::printf("Q1b with data skipping: %.2f ms, %zu cells (<150ms "
              "interactive)\n",
              timer.ElapsedMs(), filtered.output.num_rows());

  // Details on demand: materialize a few lineage rows of bar 0.
  std::vector<rid_t> sample(bar0.begin(),
                            bar0.begin() + std::min<size_t>(5, bar0.size()));
  Table details;
  if (Status st = MaterializeRowsChecked(db.lineitem, sample, &details);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nDetails on demand (5 of bar 0's input rows):\n%s\n",
              details.ToString().c_str());
  return 0;
}
