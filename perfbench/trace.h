// In-memory span recorder for the pipeline benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into a
// layer's public functions; nothing inside the library is instrumented.
// Each thread owns one ThreadTrace and is its only writer; the spans are
// read after the thread's work for the run has ended (the benchmark's
// round barrier orders the two). When a trace is disabled, Begin/End do
// nothing, so the untraced run pays one branch per call site.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // layer, named after its src/ats module
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // enclosing span on the same thread; -1 = top level
  uint64_t request = 0;  // round, batch or query id shared by its spans
  uint64_t items = 0;    // work handed to the call (items, entries)
  uint64_t out = 0;      // what it produced (accepted items, bytes, kept)
};

class ThreadTrace {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Begin(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }

  void End(int32_t id, uint64_t items, uint64_t out) {
    if (id < 0) return;
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNs();
    span.items = items;
    span.out = out;
    open_ = span.parent;
  }

  // A segment is an interval in which this thread worked on a traced
  // round; top-level spans must cover the segments (trace.coverage).
  void BeginSegment() {
    if (enabled_) segments_.emplace_back(NowNs(), 0);
  }
  void EndSegment() {
    if (enabled_) segments_.back().second = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::pair<int64_t, int64_t>>& segments() const {
    return segments_;
  }

 private:
  bool enabled_ = false;
  int32_t open_ = -1;
  std::vector<Span> spans_;
  std::vector<std::pair<int64_t, int64_t>> segments_;
};

// RAII span: records [construction, destruction) with the counts set on
// it in between.
class Scope {
 public:
  Scope(ThreadTrace& trace, const char* name, uint64_t request)
      : trace_(trace), id_(trace.Begin(name, request)) {}
  ~Scope() { trace_.End(id_, items, out); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint64_t items = 0;
  uint64_t out = 0;

 private:
  ThreadTrace& trace_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
