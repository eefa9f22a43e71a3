// In-memory span recorder for the benchmark driver. A span is one timed
// call the driver makes into a layer: name, start, end, parent span and the
// op it belongs to. Spans stay in memory and are written out once, at exit,
// as tab-separated lines the trace reducer (trace_reduce.py) reads:
//
//   S <name> <op> <parent> <start_us> <end_us>   one span (parent -1 = root)
//   V <name> <op> <value>                        a value measured in an op
//   C <name> <value>                             a run-wide count
//
// When tracing is off, Begin/End/Value do nothing and read no clock, so the
// untraced run pays one predictable branch per call site.
#ifndef HFQ_PERFBENCH_TRACE_H_
#define HFQ_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void Enable() {
    enabled_ = true;
    origin_ = Clock::now();
  }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index.
  int Begin(const char* name, int64_t op) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_us = NowMicros();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_us = NowMicros();
    open_.pop_back();
  }

  /// Names a span after the fact, once the call revealed what it did
  /// (e.g. a plan request that turned out to be a cache hit).
  void Rename(int index, const char* name) {
    if (index >= 0) spans_[static_cast<size_t>(index)].name = name;
  }

  void Value(const char* name, int64_t op, double value) {
    if (enabled_) values_.push_back({name, op, value});
  }

  void Count(const std::string& name, double value) {
    if (enabled_) counts_.emplace_back(name, value);
  }

  /// Writes every record to `path`; false if the file cannot be written.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out, "S\t%s\t%lld\t%d\t%.3f\t%.3f\n", s.name,
                   static_cast<long long>(s.op), s.parent, s.start_us,
                   s.end_us);
    }
    for (const OpValue& v : values_) {
      std::fprintf(out, "V\t%s\t%lld\t%.17g\n", v.name,
                   static_cast<long long>(v.op), v.value);
    }
    for (const auto& [name, value] : counts_) {
      std::fprintf(out, "C\t%s\t%.17g\n", name.c_str(), value);
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name = "";
    int64_t op = -1;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  struct OpValue {
    const char* name;
    int64_t op;
    double value;
  };

  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<OpValue> values_;
  std::vector<std::pair<std::string, double>> counts_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), index_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // HFQ_PERFBENCH_TRACE_H_
