// Benchmark-side span recorder: the traced run wraps each call the benchmark
// makes into a library layer (build, construct, solve, certify) in a
// span, computes every span's self time, and exports the spans as a
// Chrome trace. The spans live in the benchmark, around public calls, so
// they cost nothing in the untraced run and need no library support.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  int open(const char* name) {
    spans_.push_back({name, now_ns(), -1, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// Seconds of each span name not covered by its child spans, summed
  /// over every closed span of that name.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].name] +=
          1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].begin_ns -
                                     child_ns[i]);
    return self;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span on a
  /// single track, in microseconds since the first span.
  void write_chrome_json(std::ostream& os) const {
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().begin_ns;
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << 1e-3 * static_cast<double>(s.begin_ns - epoch)
         << ", \"dur\": " << 1e-3 * static_cast<double>(s.end_ns - s.begin_ns)
         << "}";
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;  // a string literal
    std::int64_t begin_ns;
    std::int64_t end_ns = -1;  // -1 while open
    int parent;                // index of the enclosing span, -1 for a root
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder (the untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name)
      : spans_(spans), index_(spans ? spans->open(name) : -1) {}
  ~ScopedSpan() {
    if (spans_) spans_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  int index_;
};

}  // namespace perfbench
