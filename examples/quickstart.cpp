// Quickstart: run a group-by with lineage capture, then ask backward and
// forward lineage queries.
//
//   $ ./example_quickstart
#include <cstdio>

#include "engine/group_by.h"
#include "query/lineage_query.h"
#include "storage/table.h"

using namespace smoke;

// Lineage queries return a Status: an out-of-range rid or a relation without
// captured lineage is reported, never aborted on.
static bool Check(const Status& st) {
  if (!st.ok()) std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return st.ok();
}

int main() {
  // 1. Build a small sales relation.
  Schema schema;
  schema.AddField("region", DataType::kString);
  schema.AddField("amount", DataType::kFloat64);
  Table sales(schema);
  sales.AppendRow({std::string("east"), 10.0});
  sales.AppendRow({std::string("west"), 20.0});
  sales.AppendRow({std::string("east"), 5.0});
  sales.AppendRow({std::string("north"), 7.0});
  sales.AppendRow({std::string("west"), 1.0});

  std::printf("Input relation:\n%s\n", sales.ToString().c_str());

  // 2. Run SELECT region, COUNT(*), SUM(amount) GROUP BY region with
  //    Smoke-I (inject) lineage capture.
  GroupBySpec spec;
  spec.key_names = {"region"};
  spec.aggs = {AggSpec::Count("cnt"),
               AggSpec::Sum(ScalarExpr::Col("amount"), "sum")};
  GroupByResult result =
      GroupByExec(sales, "sales", spec, CaptureOptions::Inject());

  std::printf("Query output:\n%s\n", result.output.ToString().c_str());

  // 3. Backward lineage: which input rows produced output group 0?
  std::vector<rid_t> back;
  if (!Check(BackwardRidsChecked(result.lineage, "sales", {0},
                                 /*dedup=*/false, &back))) {
    return 1;
  }
  std::printf("Backward lineage of output 0 (%s): rids [",
              result.output.column(0).strings()[0].c_str());
  for (size_t i = 0; i < back.size(); ++i) {
    std::printf("%s%u", i ? ", " : "", back[i]);
  }
  std::printf("]\n");
  Table rows;
  if (!Check(MaterializeRowsChecked(sales, back, &rows))) return 1;
  std::printf("%s\n", rows.ToString().c_str());

  // 4. Forward lineage: which outputs does input row 1 feed?
  std::vector<rid_t> fwd;
  if (!Check(ForwardRidsChecked(result.lineage, "sales", {1}, /*dedup=*/true,
                                &fwd))) {
    return 1;
  }
  std::printf("Forward lineage of input 1 (west, 20.0): output rid %u\n",
              fwd[0]);

  return 0;
}
