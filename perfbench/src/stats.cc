#include "stats.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

Deck::Deck(std::vector<int64_t> cards, uint64_t seed)
    : cards_(std::move(cards)), next_(cards_.size()), rng_(seed) {}

int64_t Deck::Next() {
  if (next_ == cards_.size()) {
    std::shuffle(cards_.begin(), cards_.end(), rng_);
    next_ = 0;
  }
  return cards_[next_++];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

namespace {

/// A "<key>: <n> kB" field of /proc/self/status, in MiB.
double StatusFieldMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace

bool RssWatermark::Start() {
  malloc_trim(0);
  bool reset = false;
  {
    // Writing 5 resets the peak resident set size (VmHWM) to the current
    // resident set.
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset = static_cast<bool>(clear);
  }
  baseline_mb_ = StatusFieldMb("VmRSS:");
  return reset;
}

double RssWatermark::PeakMb() const {
  return StatusFieldMb("VmHWM:") - baseline_mb_;
}

std::vector<double> Ratios(const std::vector<double>& op_ms,
                           const std::vector<double>& ref_ms) {
  std::vector<double> r;
  for (size_t i = 0; i < op_ms.size() && i < ref_ms.size(); ++i) {
    if (ref_ms[i] > 0) r.push_back(op_ms[i] / ref_ms[i]);
  }
  return r;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

namespace {

void Upsert(std::vector<Report::Metric>* list, const std::string& name,
            double value, const std::string& unit) {
  for (Report::Metric& m : *list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list->push_back(Report::Metric{name, value, unit});
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  Upsert(&metrics_, name, value, unit);
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  Upsert(&details_, name, value, unit);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::Get(const std::string& name, double* value) const {
  for (const std::vector<Metric>* list : {&metrics_, &details_}) {
    for (const Metric& m : *list) {
      if (m.name == name) {
        *value = m.value;
        return true;
      }
    }
  }
  return false;
}

std::vector<std::string> Report::MetricNames() const {
  std::vector<std::string> names;
  for (const Metric& m : metrics_) names.push_back(m.name);
  return names;
}

void Report::Print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Metric& m : details_) {
    std::printf("# %-38s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-40s %.6g (%llu of %llu operations)\n", "fail_frac", fail_frac,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
