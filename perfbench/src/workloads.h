// The benchmark's workloads. Each builds its inputs from the seed in
// `cfg`, sets up, warms up, measures for `cfg.seconds` (taking kSetups
// set-ups in all; setup_s is their median), checks every result it can
// against an independent scan of the inputs, and fills `report` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// A set-up step that fails returns its Status; a wrong result only counts
// as a failed operation.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"
#include "storage/table.h"

namespace perfbench {

smoke::Status RunTpchCapture(const RunConfig& cfg, Report* report);
smoke::Status RunTraceDrilldown(const RunConfig& cfg, Report* report);
smoke::Status RunCrossfilterServe(const RunConfig& cfg, Report* report);

/// Dispatches on cfg.workload; InvalidArgument for an unknown name.
smoke::Status RunWorkload(const RunConfig& cfg, Report* report);

/// True when the two tables have the same schema types and identical
/// column contents in the same row order.
bool TablesEqual(const smoke::Table& a, const smoke::Table& b);

/// \brief What every untraced run measures, under the same metric names
/// in each workload. Each workload times one kind of operation next to a
/// reference that answers the same question without lineage: a capture
/// half next to a no-capture half, a drill-down next to a lazy plan, a
/// brush next to a scan of its snapshot.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one entry per set-up
  std::vector<double> rel;      ///< per-operation ratios (see Ratios)
  double lineage_bytes_per_row = 0;
  double peak_rss_mb = 0;
};

/// Sets the end-to-end metrics: setup_s (median), op_p50_rel (median
/// ratio), op_tail_rel (tail of the ratios; a note names its percentile
/// and sample count), lineage_bytes_per_row and peak_rss_mb.
void ReportEndToEnd(const EndToEnd& e, Report* report);

/// Sets the per-layer metrics every traced run reports: op_p50_ms,
/// op_tail_ms and ref_p50_ms from the untraced operations and their
/// references; optimizer.optimize_ms, lineage.encode_ms,
/// lineage.{raw,encoded}_bytes_per_row and store.bytes from the spans and
/// counters the workload's layer probes recorded; and trace.overhead_x,
/// the traced over the untraced operation median. The self time per root
/// operation and layer ("self_ms.<root>.<layer>") goes to the details.
void ReportPerLayer(const std::vector<double>& op_ms,
                    const std::vector<double>& traced_op_ms,
                    const std::vector<double>& ref_ms, Report* report);

/// Writes the recorded spans to cfg.trace_path (when set).
void WriteTrace(const RunConfig& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
