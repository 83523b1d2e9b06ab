// Figure 15: FD-violation evaluation + bipartite graph construction latency
// on the Physician-like dataset for Metanome-UG (string data model +
// virtual-call capture), Smoke-UG and Smoke-CD, all through the engine
// (bench/fd_modes.h). Expected shape: Metanome-UG slowest on every FD, with
// the largest gap on the integer FD NPI→PAC_ID, where string modeling hurts
// most. The paper's Smoke-CD < Smoke-UG ordering does not hold here: Q_cd's
// composite-key GroupBy(A, B) costs more than UG's two single-key
// group-bys, so CD lands level with or above UG. JVM overhead is not
// simulated, so the absolute Metanome gap is smaller than the paper's.
#include "harness.h"

#include "common/macros.h"
#include "fd_modes.h"
#include "workloads/physician.h"

namespace smoke {
namespace {

void Run(const bench::Options& opts) {
  const size_t rows = opts.full ? 2200000 : opts.smoke ? 40000 : 400000;
  bench::Banner("Figure 15",
                "FD violation profiling latency (bipartite graph "
                "construction included)");
  std::printf("rows=%zu (paper: 2.2M)\n", rows);
  Table t = physician::Generate(rows);

  const bench::FdSpec fds[] = {
      {physician::kNpi, physician::kPacId, "NPI->PAC_ID"},
      {physician::kZip, physician::kState, "Zip->State"},
      {physician::kZip, physician::kCity, "Zip->City"},
      {physician::kLbn1, physician::kCcn1, "LBN1->CCN1"},
  };

  for (const bench::FdSpec& fd : fds) {
    bench::FdReport report;
    for (const bench::FdMode& mode : bench::kFdModes) {
      RunStats stats = bench::Measure(
          opts, [&] { SMOKE_CHECK(mode.run(t, fd, &report).ok()); });
      bench::Row("fig15", "fd=" + fd.name + ",mode=" + mode.name +
                              ",ms=" + bench::F(stats.mean_ms));
    }
    // `report` is Smoke-CD's, the last mode run.
    bench::Row("fig15", "fd=" + fd.name + ",violations=" +
                            std::to_string(report.violating_values.size()) +
                            ",groups=" + std::to_string(report.num_groups));
  }
}

}  // namespace
}  // namespace smoke

int main(int argc, char** argv) {
  smoke::Run(smoke::bench::Options::Parse(argc, argv));
  return 0;
}
