// Run configuration, summary statistics and the result report shared by
// the benchmark's workloads.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< length of the timed window
  bool trace = false;   ///< the traced run: per-layer metrics
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_path;
};

/// \brief A seeded operation sequence with a fixed mix: it deals `cards`
/// in an order shuffled by the seed and reshuffles after every pass. Unlike
/// independent draws, every run sees the same mix up to one partial pass,
/// so a median over the operations does not move with the seed.
class Deck {
 public:
  Deck(std::vector<int64_t> cards, uint64_t seed);
  int64_t Next();

 private:
  std::vector<int64_t> cards_;
  size_t next_;
  std::mt19937_64 rng_;
};

/// \brief When the set-ups after the first are due in a single-client
/// workload: spread evenly over the timed window, between operations. On a
/// shared host, speed changes over tens of seconds; set-ups taken back to
/// back sample one moment of it, and their median moved by a fifth between
/// passes of the same code.
class SetupSchedule {
 public:
  explicit SetupSchedule(double seconds)
      : period_ms_(seconds * 1000.0 / (kSetups - 1)), window_ms_(seconds * 1000.0) {}
  /// True when another set-up is due `elapsed_ms` into the timed window;
  /// at the end of the window every remaining one is due.
  bool Due(double elapsed_ms) {
    if (done_ == kSetups) return false;
    if (elapsed_ms < (done_ - 0.5) * period_ms_ && elapsed_ms < window_ms_) {
      return false;
    }
    ++done_;
    return true;
  }

 private:
  double period_ms_;
  double window_ms_;
  int done_ = 1;  // the first set-up builds the engine the run measures
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it, i.e. the
/// eleventh-largest sample, reported with the percentile it stands for.
/// With ten or fewer samples it is the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

/// \brief Peak resident memory of the engine's work, above the generated
/// inputs. Start() hands freed heap pages back to the kernel, resets the
/// kernel's peak-RSS mark and records the resident set; PeakMb() is the
/// peak since then minus that baseline. Excluding the inputs keeps the
/// figure independent of how the input generator sized its buffers for a
/// given seed.
class RssWatermark {
 public:
  /// False when the kernel refused the reset; the peak then includes the
  /// input generation.
  bool Start();
  double PeakMb() const;

 private:
  double baseline_mb_ = 0;
};

/// \brief Host-independent latency: op_ms[i] / ref_ms[i], where ref_ms[i]
/// is the time of the reference operation run next to operation i on the
/// same thread. A slow phase of a shared host scales both.
std::vector<double> Ratios(const std::vector<double>& op_ms,
                           const std::vector<double>& ref_ms);

/// \brief The run's result: operations attempted and failed, end-to-end or
/// per-layer metrics, details and human-readable notes. Print() writes the
/// notes and details and then, as the last line of standard output, the
/// JSON result object, which holds the metrics only.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  /// Counts one checked operation; a failure is logged to stderr (the
  /// first few of them) with `what`.
  void Check(bool ok, const std::string& what);

  /// A metric of the JSON result. Every workload sets the same names.
  void Set(const std::string& name, double value, const std::string& unit);
  /// A figure of one workload only: printed, not part of the JSON result.
  void Detail(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The value of metric or detail `name`; false when it was not set.
  bool Get(const std::string& name, double* value) const;
  /// The names of the metrics, in the order they were first set.
  std::vector<std::string> MetricNames() const;

  void Print() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
