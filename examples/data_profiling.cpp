// Data profiling (the paper's Section 6.5.2): check functional dependencies
// over a Physician-Compare-like table and build the violation-to-tuple
// bipartite graph, all expressed in lineage terms (Smoke-CD). An FD check
// A → B is the query
//
//   SELECT A, COUNT(*) AS nb
//   FROM (SELECT A, B, COUNT(*) FROM T GROUP BY A, B)
//   GROUP BY A                          -- A violates where nb > 1
//
// run with backward lineage capture: each violating output row's backward
// lineage to T is the set of tuples behind the violation.
//
//   $ ./example_data_profiling
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/timer.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "workloads/physician.h"

using namespace smoke;

namespace {

struct Fd {
  int lhs_col;
  int rhs_col;
  const char* name;
};

/// Q_cd for `fd` over `t` as an operator DAG.
Status BuildFdPlan(const Table& t, const Fd& fd, LogicalPlan* plan) {
  PlanBuilder b;
  GroupBySpec pairs;
  pairs.keys = {fd.lhs_col, fd.rhs_col};
  pairs.aggs = {AggSpec::Count("n")};
  GroupBySpec per_lhs;
  per_lhs.keys = {0};
  per_lhs.aggs = {AggSpec::Count("nb")};
  int root = b.GroupBy(b.GroupBy(b.Scan(&t, "T"), pairs), per_lhs);
  return b.Build(root, plan);
}

}  // namespace

int main() {
  const size_t kRows = 100000;
  std::printf("Generating %zu physician records...\n", kRows);
  Table t = physician::Generate(kRows);

  const Fd fds[] = {
      {physician::kNpi, physician::kPacId, "NPI -> PAC_ID"},
      {physician::kZip, physician::kState, "Zip -> State"},
      {physician::kZip, physician::kCity, "Zip -> City"},
      {physician::kLbn1, physician::kCcn1, "LBN1 -> CCN1"},
  };

  CaptureOptions opts = CaptureOptions::Inject();
  opts.capture_forward = false;  // the graph is read backward only
  for (const Fd& fd : fds) {
    WallTimer timer;
    LogicalPlan plan;
    PlanResult result;
    Status st = BuildFdPlan(t, fd, &plan);
    if (st.ok()) st = ExecutePlan(plan, opts, &result);
    if (!st.ok()) {
      std::printf("FD %s failed: %s\n", fd.name, st.ToString().c_str());
      return 1;
    }
    double ms = timer.ElapsedMs();

    const Column& lhs = result.output.column(0);
    const std::vector<int64_t>& nb = result.output.column(1).ints();
    const LineageIndex& graph = result.lineage.input(0).backward;
    const size_t violations = static_cast<size_t>(
        std::count_if(nb.begin(), nb.end(), [](int64_t n) { return n > 1; }));
    std::printf("\nFD %-14s  %zu distinct LHS values, %zu violations "
                "(%.1f ms)\n",
                fd.name, result.output.num_rows(), violations, ms);
    // Show the bipartite graph for the first few violations.
    size_t shown = 0;
    for (rid_t g = 0; g < nb.size() && shown < 3; ++g) {
      if (nb[g] <= 1) continue;
      ++shown;
      std::vector<rid_t> tuples;
      graph.TraceInto(g, &tuples);
      std::printf("  violation '%s' -> %zu tuples: ",
                  ValueToString(lhs.GetValue(g)).c_str(), tuples.size());
      for (size_t j = 0; j < std::min<size_t>(5, tuples.size()); ++j) {
        std::printf("%u ", tuples[j]);
      }
      std::printf("%s\n", tuples.size() > 5 ? "..." : "");
    }
  }
  return 0;
}
