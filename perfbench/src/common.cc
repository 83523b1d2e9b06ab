#include <cstring>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {

using smoke::Column;
using smoke::DataType;
using smoke::Status;
using smoke::Table;

bool TablesEqual(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    if (x.type() != y.type()) return false;
    switch (x.type()) {
      case DataType::kInt64:
        if (x.ints() != y.ints()) return false;
        break;
      case DataType::kFloat64:
        // Bitwise: capture must not perturb the aggregation order.
        if (x.doubles().size() != y.doubles().size() ||
            (!x.doubles().empty() &&
             std::memcmp(x.doubles().data(), y.doubles().data(),
                         x.doubles().size() * sizeof(double)) != 0)) {
          return false;
        }
        break;
      case DataType::kString:
        if (x.strings() != y.strings()) return false;
        break;
    }
  }
  return true;
}

void ReportEndToEnd(const EndToEnd& e, Report* report) {
  const Tail tail = TailOf(e.rel);
  report->Note("op_tail_rel is p" + std::to_string(tail.percentile) + " of " +
               std::to_string(tail.samples) + " operations");
  report->Set("setup_s", Median(e.setup_s), "s");
  report->Set("op_p50_rel", Median(e.rel), "x");
  report->Set("op_tail_rel", tail.value, "x");
  report->Set("lineage_bytes_per_row", e.lineage_bytes_per_row, "B/row");
  report->Set("peak_rss_mb", e.peak_rss_mb, "MiB");
}

void ReportPerLayer(const std::vector<double>& op_ms,
                    const std::vector<double>& traced_op_ms,
                    const std::vector<double>& ref_ms, Report* report) {
  const std::vector<Span> spans = Tracer::Get().Spans();
  const std::vector<CounterSample> counters = Tracer::Get().Counters();
  report->Set("op_p50_ms", Median(op_ms), "ms");
  report->Set("op_tail_ms", TailOf(op_ms).value, "ms");
  report->Set("ref_p50_ms", Median(ref_ms), "ms");
  report->Set("optimizer.optimize_ms", MedianSpanMs(spans, "optimizer.optimize"),
              "ms");
  report->Set("lineage.encode_ms", MedianSpanMs(spans, "lineage.encode"), "ms");
  report->Set("lineage.raw_bytes_per_row",
              MedianCounter(counters, "lineage.raw_bytes_per_row"), "B/row");
  report->Set("lineage.encoded_bytes_per_row",
              MedianCounter(counters, "lineage.encoded_bytes_per_row"), "B/row");
  report->Set("store.bytes", MedianCounter(counters, "store.bytes"), "B");
  const double untraced = Median(op_ms);
  report->Set("trace.overhead_x",
              untraced > 0 ? Median(traced_op_ms) / untraced : 0, "x");
  for (const auto& [key, ms] : SelfMsPerOp(spans)) {
    report->Detail("self_ms." + key, ms, "ms");
  }
}

void WriteTrace(const RunConfig& cfg, Report* report) {
  if (cfg.trace_path.empty()) return;
  if (Tracer::Get().WriteChromeJson(cfg.trace_path)) {
    report->Note("trace events written to " + cfg.trace_path);
  } else {
    report->Note("could not write trace events to " + cfg.trace_path);
  }
}

Status RunWorkload(const RunConfig& cfg, Report* report) {
  if (cfg.workload == "tpch_capture") return RunTpchCapture(cfg, report);
  if (cfg.workload == "trace_drilldown") return RunTraceDrilldown(cfg, report);
  if (cfg.workload == "crossfilter_serve") {
    return RunCrossfilterServe(cfg, report);
  }
  return Status::InvalidArgument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
