#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "stats.h"

namespace perfbench {
namespace {

struct ThreadState {
  bool active = false;
  uint32_t tid = 0;
  std::vector<int> open;  // indexes of this thread's open spans, innermost last
  uint64_t op = 0;        // operation id of the outermost open span
};

ThreadState& State() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local ThreadState state{false, next_tid.fetch_add(1), {}, 0};
  return state;
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_ns_(SteadyNs()) {}

int64_t Tracer::NowNs() const { return SteadyNs() - epoch_ns_; }

void Tracer::SetThreadActive(bool on) { State().active = on; }

int Tracer::Open(const char* name, uint64_t op) {
  ThreadState& ts = State();
  Span s;
  s.name = name;
  s.parent = ts.open.empty() ? -1 : ts.open.back();
  s.op = ts.open.empty() ? op : ts.op;
  s.tid = ts.tid;
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.start_ns = NowNs();
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  if (ts.open.empty()) ts.op = op;
  ts.open.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  ThreadState& ts = State();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  if (!ts.open.empty() && ts.open.back() == index) ts.open.pop_back();
}

Tracer::Scope::Scope(const char* name, uint64_t op) {
  if (State().active) index_ = Get().Open(name, op);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) Get().Close(index_);
}

void Tracer::Count(const std::string& name, double value) {
  if (!State().active) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(CounterSample{name, NowNs(), value});
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<CounterSample> Tracer::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  counters_.clear();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::fprintf(f, "%s{\"ph\":\"X\",\"name\":", first ? "" : ",\n");
    first = false;
    WriteJsonString(f, s.name);
    std::fprintf(f,
                 ",\"cat\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"op\":%llu}}",
                 LayerOf(s.name).c_str(), s.tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  for (const CounterSample& c : counters_) {
    std::fprintf(f, "%s{\"ph\":\"C\",\"name\":", first ? "" : ",\n");
    first = false;
    WriteJsonString(f, c.name);
    std::fprintf(f, ",\"pid\":1,\"ts\":%.3f,\"args\":{\"value\":%.17g}}",
                 c.ts_ns / 1e3, c.value);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (p.end_ns == 0) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : children[i]) {
      const Span& s = spans[static_cast<size_t>(c)];
      if (s.end_ns == 0) continue;
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

double MedianSpanMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.name == name && s.end_ns != 0) {
      ms.push_back((s.end_ns - s.start_ns) / 1e6);
    }
  }
  return ms.empty() ? -1 : Median(ms);
}

double MedianCounter(const std::vector<CounterSample>& counters,
                     const std::string& name) {
  std::vector<double> v;
  for (const CounterSample& c : counters) {
    if (c.name == name) v.push_back(c.value);
  }
  return v.empty() ? -1 : Median(v);
}

std::map<std::string, double> SelfMsPerOp(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // Root of every span, found by walking parents (parents precede children).
  std::vector<int> root(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[static_cast<size_t>(p)];
  }
  // (root name, layer) -> root span index -> summed self ns.
  std::map<std::string, std::map<int, int64_t>> per_op;
  std::map<std::string, std::vector<int>> roots_by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns == 0) continue;
    const Span& r = spans[static_cast<size_t>(root[i])];
    if (r.end_ns == 0) continue;
    per_op[r.name + "." + LayerOf(spans[i].name)][root[i]] += self[i];
    if (spans[i].parent < 0) roots_by_name[r.name].push_back(root[i]);
  }
  std::map<std::string, double> out;
  for (const auto& [key, by_root] : per_op) {
    const std::string root_name = key.substr(0, key.rfind('.'));
    // Operations that never reached a layer count as zero time in it.
    std::vector<double> ms;
    for (int r : roots_by_name[root_name]) {
      auto it = by_root.find(r);
      ms.push_back(it == by_root.end() ? 0.0 : it->second / 1e6);
    }
    out[key] = Median(ms);
  }
  return out;
}

}  // namespace perfbench
