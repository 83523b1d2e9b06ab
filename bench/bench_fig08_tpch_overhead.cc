// Figure 8: relative lineage capture overhead on TPC-H Q1, Q3, Q10, Q12.
// Paper (SF1): Smoke-I at most ~22% overhead; Logic-Idx 41%-511%, worst on
// Q1 whose high-selectivity predicate maximizes the denormalized lineage
// graph. Smoke-D is slower than Smoke-I but faster than logical capture.
#include "harness.h"

#include "engine/spja.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

void Run(const bench::Options& opts) {
  const double sf = opts.scale > 0
                        ? opts.scale
                        : (opts.full ? 1.0 : (opts.smoke ? 0.01 : 0.1));
  bench::Banner("Figure 8",
                "TPC-H lineage capture relative overhead (Smoke-I vs "
                "Logic-Idx; Smoke-D included)");
  std::printf("scale factor %.2f\n", sf);
  tpch::Database db = tpch::Generate(sf);

  struct NamedQuery {
    const char* name;
    SPJAQuery query;
  };
  NamedQuery queries[] = {{"Q1", tpch::MakeQ1(db)},
                          {"Q3", tpch::MakeQ3(db)},
                          {"Q10", tpch::MakeQ10(db)},
                          {"Q12", tpch::MakeQ12(db)}};

  for (auto& nq : queries) {
    double baseline_ms = 0;
    for (CaptureMode m : {CaptureMode::kNone, CaptureMode::kInject,
                          CaptureMode::kDefer, CaptureMode::kLogicIdx}) {
      size_t lineage_bytes = 0;  // the retained indexes of the last run
      RunStats s = bench::Measure(opts, [&] {
        lineage_bytes =
            SPJAExec(nq.query, CaptureOptions::Mode(m)).lineage.MemoryBytes();
      });
      if (m == CaptureMode::kNone) baseline_ms = s.mean_ms;
      double overhead_pct =
          baseline_ms > 0 ? 100.0 * (s.mean_ms - baseline_ms) / baseline_ms
                          : 0;
      bench::Row("fig08", std::string("query=") + nq.name + ",mode=" +
                              CaptureModeName(m) + ",ms=" +
                              bench::F(s.mean_ms) + ",overhead_pct=" +
                              bench::F(overhead_pct) + ",lineage_bytes=" +
                              std::to_string(lineage_bytes));
    }
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
