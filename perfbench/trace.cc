#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Span> Tracer::Spans(size_t from) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Span>(spans_.begin() + std::min(from, spans_.size()),
                           spans_.end());
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%.17g}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.count);
  }
  return std::fclose(f) == 0;
}

TraceContext& CurrentContext() {
  thread_local TraceContext context;
  return context;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), active_(tracer != nullptr && tracer->enabled()) {
  if (!active_) return;
  TraceContext& ctx = CurrentContext();
  saved_ = ctx;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = ctx.span;
  span_.request = request != 0 ? request : ctx.request;
  ctx = TraceContext{span_.request, span_.id};
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  CurrentContext() = saved_;
  tracer_->Record(std::move(span_));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  return values[rank - 1];
}

size_t SamplesBeyond(const std::vector<double>& values, double p) {
  const double cut = Percentile(values, p);
  return static_cast<size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double LagUs(int64_t due_ns, int64_t sent_ns) {
  return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1e3 : 0.0;
}

bool FellBehind(const std::vector<double>& lags_us, double limit_us) {
  return Percentile(lags_us, 99.0) > limit_us;
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, parent.start_ns);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : cover) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (parent.end_ns - parent.start_ns) - covered;
}

std::vector<double> SelfTimesNs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    auto it = children.find(s.id);
    out.push_back(static_cast<double>(
        SelfTimeNs(s, it == children.end() ? std::vector<Span>() : it->second)));
  }
  return out;
}

std::vector<double> DurationsNs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

}  // namespace perfbench
