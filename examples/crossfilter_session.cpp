// Crossfilter session (the paper's Section 6.5.1): four linked histogram
// views over an Ontime-like flights table, each a COUNT(*) SPJA block
// retained with its lineage; brushing a bar updates the other views over
// that bar's backward lineage, BT+FT style (the backward index finds the
// rows, the other views' forward indexes map them to their bars).
//
//   $ ./example_crossfilter_session
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/plan_crossfilter.h"
#include "common/timer.h"
#include "workloads/ontime.h"

using namespace smoke;

int main() {
  const size_t kRows = 500000;
  std::printf("Generating %zu flights...\n", kRows);
  Table flights = ontime::Generate(kRows);

  const char* names[] = {"lat/lon", "date", "delay", "carrier"};
  const int dims[] = {ontime::kLatLonBin, ontime::kDateBin, ontime::kDelayBin,
                      ontime::kCarrier};
  PlanCrossfilter cf("ontime");
  WallTimer init;
  for (size_t v = 0; v < 4; ++v) {
    SPJAQuery q;
    q.fact = &flights;
    q.fact_name = "ontime";
    q.group_by = {ColRef::Fact(dims[v])};
    q.aggs = {AggSpec::Count("cnt")};
    PlanBuilder b;
    LogicalPlan plan;
    SMOKE_CHECK(b.Build(b.SpjaBlock(std::move(q)), &plan).ok());
    SMOKE_CHECK(cf.AddView(names[v], plan).ok());
  }
  std::printf("Initial views + lineage capture: %.1f ms\n", init.ElapsedMs());

  std::vector<const Table*> views(4);
  for (size_t v = 0; v < 4; ++v) {
    SMOKE_CHECK(cf.ViewOutput(names[v], &views[v]).ok());
    std::printf("view %zu (%s): %zu bars\n", v, names[v],
                views[v]->num_rows());
  }
  // A view row is (bin value, COUNT(*)).
  auto bin = [&](size_t v, size_t b) { return views[v]->column(0).ints()[b]; };
  auto count = [&](size_t v, size_t b) {
    return views[v]->column(1).ints()[b];
  };

  // Brush the busiest carrier and report how the delay view updates.
  size_t busiest = 0;
  for (size_t b = 1; b < views[3]->num_rows(); ++b) {
    if (count(3, b) > count(3, busiest)) busiest = b;
  }
  std::printf("\nBrushing carrier %lld (%lld flights)...\n",
              static_cast<long long>(bin(3, busiest)),
              static_cast<long long>(count(3, busiest)));
  WallTimer brush;
  std::map<std::string, PlanCrossfilter::Linked> linked;
  SMOKE_CHECK(
      cf.Brush("carrier", static_cast<rid_t>(busiest), &linked).ok());
  double ms = brush.ElapsedMs();
  std::printf("Brush latency: %.2f ms (interactive threshold: 150 ms)\n\n",
              ms);

  // Unlinked delay bars fall to zero.
  std::vector<int64_t> updated(views[2]->num_rows(), 0);
  const PlanCrossfilter::Linked& delay = linked.at("delay");
  for (size_t i = 0; i < delay.rids.size(); ++i) {
    updated[delay.rids[i]] = delay.counts[i];
  }
  std::printf("Delay view (all flights -> brushed carrier):\n");
  for (size_t b = 0; b < views[2]->num_rows(); ++b) {
    std::printf("  delay bin %lld: %8lld -> %8lld\n",
                static_cast<long long>(bin(2, b)),
                static_cast<long long>(count(2, b)),
                static_cast<long long>(updated[b]));
  }
  return 0;
}
