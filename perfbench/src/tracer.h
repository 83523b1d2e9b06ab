// Span tracer of the benchmark: records one span around each call the
// benchmark makes into a layer of the engine (the engine itself carries no
// tracing). Spans stay in memory and are written out as Chrome trace-event
// JSON when the run ends.
//
// Tracing is switched per thread, so a run can interleave traced and
// untraced operations and report the tracing overhead from the two
// medians. A span's parent is the innermost open span of the same thread;
// a root span (a round, trace, brush or append) carries the operation id
// that its descendants inherit.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;       ///< "<layer>.<call>", e.g. "query.compile"
  int64_t start_ns = 0;   ///< steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;     ///< 0 while the span is open
  int parent = -1;        ///< index into the span list; -1 for a root
  uint64_t op = 0;        ///< operation id shared by a root and its spans
  uint32_t tid = 0;       ///< small per-thread id for the trace viewer
};

/// A counter sample taken at a layer boundary (bytes, rows, queue depth).
struct CounterSample {
  std::string name;
  int64_t ts_ns = 0;
  double value = 0;
};

class Tracer {
 public:
  /// The process-wide tracer.
  static Tracer& Get();

  /// Switches recording on or off for the calling thread.
  static void SetThreadActive(bool on);

  /// \brief RAII span: opens on construction when the calling thread is
  /// tracing, closes on destruction. `op` is used only for root spans;
  /// nested spans inherit their parent's operation id.
  class Scope {
   public:
    explicit Scope(const char* name, uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int index_ = -1;
  };

  /// Records a counter sample (no-op while the calling thread is not
  /// tracing).
  void Count(const std::string& name, double value);

  std::vector<Span> Spans() const;
  std::vector<CounterSample> Counters() const;
  void Clear();

  /// Writes spans ("X" events) and counters ("C" events) as Chrome
  /// trace-event JSON. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  Tracer();
  int Open(const char* name, uint64_t op);
  void Close(int index);
  int64_t NowNs() const;

  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;            // guarded by mu_
  std::vector<CounterSample> counters_;  // guarded by mu_
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// The layer of a span or counter name: the text before the first '.'.
std::string LayerOf(const std::string& name);

/// Median duration in ms of the closed spans named `name`; -1 when none.
double MedianSpanMs(const std::vector<Span>& spans, const std::string& name);

/// Median of the counter samples named `name`; -1 when none.
double MedianCounter(const std::vector<CounterSample>& counters,
                     const std::string& name);

/// Per-layer self time per root operation: for each root span name and
/// each layer below it, the median over that root's operations of the
/// summed self time, in ms. Keyed "<root>.<layer>".
std::map<std::string, double> SelfMsPerOp(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
