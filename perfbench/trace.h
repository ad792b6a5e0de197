// Benchmark-side tracing and statistics.
//
// Spans are recorded only from the benchmark's own code: around each call it
// makes into a library module, and inside thin decorators it hands to the
// library where the public API already takes a pointer (an Index wrapper, a
// BinScorer wrapper). Spans are kept in memory and summarized (or written
// out) when the run ends.
//
// The arithmetic here (percentiles, generator lag, span self time) and the
// process CPU clock are pinned by perfbench/unit_test.cc.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by all threads of this process. Time the host takes
/// a vCPU away (steal) or the guest runs another process is not counted, so
/// on a shared host this measures the program's work more steadily than a
/// wall clock. Other threads' time since their last scheduler tick is not
/// yet included, so read it over intervals much longer than a tick.
inline int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the id of the span that caused this one (0 = root).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double count = 0;  ///< work done inside the span (rows, candidates, ...)
};

/// In-memory span sink. Disabled tracers record nothing, so decorators cost a
/// branch when a run measures end-to-end metrics.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(Span span);

  /// Number of spans recorded so far (a mark for Spans(from)).
  size_t size() const;

  /// Snapshot of the spans recorded since mark `from`.
  std::vector<Span> Spans(size_t from = 0) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// The (request, span) a thread is currently inside; decorators called on
/// that thread parent their spans to it.
struct TraceContext {
  uint64_t request = 0;
  uint64_t span = 0;
};
TraceContext& CurrentContext();

/// RAII span: opens on construction (becoming the thread's current context),
/// records on destruction when the tracer is enabled. `request == 0`
/// inherits the current context's request.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(double count) { span_.count = count; }

 private:
  Tracer* tracer_;
  bool active_;
  Span span_;
  TraceContext saved_;
};

// --- Statistics ------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 for an empty set.
/// The p-th percentile is the smallest value with at least p% of the samples
/// at or below it.
double Percentile(std::vector<double> values, double p);

/// Number of samples strictly above the p-th percentile (the tail a
/// percentile rests on; reported beside every percentile).
size_t SamplesBeyond(const std::vector<double>& values, double p);

double Mean(const std::vector<double>& values);

/// Open-loop generator lateness of one send: how long after its due time the
/// generator issued it (never negative).
double LagUs(int64_t due_ns, int64_t sent_ns);

/// True when an open-loop generator fell behind its schedule: its p99
/// lateness exceeded `limit_us`, so the offered load was not the stated one.
bool FellBehind(const std::vector<double>& lags_us, double limit_us);

/// Self time of `parent`: its duration minus the part of its interval that
/// the given child spans cover (overlapping children count once; parts of a
/// child outside the parent are ignored).
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Per-span self time for every span named `name`, with children taken from
/// all spans whose parent is that span.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans,
                                const std::string& name);

/// Durations (ns) of spans named `name`.
std::vector<double> DurationsNs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
