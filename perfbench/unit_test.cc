// Unit checks of the benchmark's own arithmetic: percentiles, generator lag,
// span self time, and the process CPU clock. Exits non-zero if a check
// failed. Run through `python3 perfbench/run.py --selftest`.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start,
                         int64_t end, const char* name = "s") {
  perfbench::Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Check(Near(Percentile(v, 50), 50), "p50 of 1..100 is 50");
  Check(Near(Percentile(v, 99), 99), "p99 of 1..100 is 99");
  Check(Near(Percentile(v, 100), 100), "p100 is the max");
  Check(Near(Percentile(v, 0), 1), "p0 is the min");
  Check(Near(Percentile({7.0}, 99), 7), "single sample");
  Check(Near(Percentile({}, 50), 0), "empty set reads 0");
  Check(Near(Percentile({1, 2, 3, 4}, 50), 2), "nearest rank, even count");
  Check(Near(Percentile({1, 2, 3, 4}, 51), 3), "nearest rank rounds up");
  Check(perfbench::SamplesBeyond(v, 99) == 1, "one sample beyond p99 of 100");
  std::vector<double> big;
  for (int i = 0; i < 2000; ++i) big.push_back(i);
  Check(perfbench::SamplesBeyond(big, 99) == 20, "20 beyond p99 of 2000");
  Check(Near(perfbench::Mean({1, 2, 3}), 2), "mean");
}

void TestLag() {
  using perfbench::LagUs;
  Check(Near(LagUs(1000, 1000), 0), "on-time send has no lag");
  Check(Near(LagUs(1000, 500), 0), "early send has no lag");
  Check(Near(LagUs(1000, 4000), 3), "3000 ns late is 3 us");
  std::vector<double> lags(1000, 10.0);
  Check(!perfbench::FellBehind(lags, 100), "steady small lag is on schedule");
  for (int i = 0; i < 20; ++i) lags[i] = 5000;
  Check(perfbench::FellBehind(lags, 100), "2% late sends exceed a p99 limit");
  lags.assign(1000, 10.0);
  for (int i = 0; i < 5; ++i) lags[i] = 5000;
  Check(!perfbench::FellBehind(lags, 100), "0.5% late sends stay under p99");
}

void TestSelfTime() {
  using perfbench::SelfTimeNs;
  const perfbench::Span parent = MakeSpan(1, 0, 100, 200);
  Check(SelfTimeNs(parent, {}) == 100, "no children: self = duration");
  Check(SelfTimeNs(parent, {MakeSpan(2, 1, 110, 130)}) == 80,
        "one child inside");
  Check(SelfTimeNs(parent, {MakeSpan(2, 1, 110, 130), MakeSpan(3, 1, 150, 160)}) ==
            70,
        "two disjoint children");
  Check(SelfTimeNs(parent, {MakeSpan(2, 1, 110, 150), MakeSpan(3, 1, 140, 170)}) ==
            40,
        "overlapping children count once");
  Check(SelfTimeNs(parent, {MakeSpan(2, 1, 50, 120), MakeSpan(3, 1, 190, 260)}) ==
            70,
        "children clipped to the parent interval");
  Check(SelfTimeNs(parent, {MakeSpan(2, 1, 100, 200)}) == 0,
        "fully covered parent");
  Check(SelfTimeNs(parent, {MakeSpan(2, 1, 110, 120), MakeSpan(3, 1, 120, 130)}) ==
            80,
        "touching children");

  std::vector<perfbench::Span> spans = {
      MakeSpan(1, 0, 0, 100, "outer"), MakeSpan(2, 1, 10, 40, "inner"),
      MakeSpan(3, 2, 15, 20, "leaf"), MakeSpan(4, 0, 200, 300, "outer")};
  const std::vector<double> self = perfbench::SelfTimesNs(spans, "outer");
  Check(self.size() == 2 && Near(self[0], 70) && Near(self[1], 100),
        "SelfTimesNs subtracts direct children only");
  const std::vector<double> inner = perfbench::SelfTimesNs(spans, "inner");
  Check(inner.size() == 1 && Near(inner[0], 25), "nested self time");
  const std::vector<double> dur = perfbench::DurationsNs(spans, "outer");
  Check(dur.size() == 2 && Near(dur[0], 100), "durations");
}

void TestScopedSpan() {
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan off(&tracer, "off", 1);
  }
  Check(tracer.Spans().empty(), "disabled tracer records nothing");
  tracer.set_enabled(true);
  {
    perfbench::ScopedSpan root(&tracer, "root", 42);
    perfbench::ScopedSpan child(&tracer, "child");
  }
  const std::vector<perfbench::Span> spans = tracer.Spans();
  Check(spans.size() == 2, "two spans recorded");
  if (spans.size() == 2) {
    const perfbench::Span& child = spans[0];
    const perfbench::Span& root = spans[1];
    Check(child.name == "child" && root.name == "root", "close order");
    Check(child.parent == root.id && root.parent == 0, "parent links");
    Check(child.request == 42 && root.request == 42, "request id inherited");
  }
  Check(perfbench::CurrentContext().span == 0, "context restored");
}

void TestProcessCpu() {
  // Waiting costs no CPU time; busy work costs about its wall time.
  int64_t cpu0 = perfbench::ProcessCpuNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Check(perfbench::ProcessCpuNs() - cpu0 < 20'000'000, "a 50 ms sleep uses < 20 ms CPU");
  cpu0 = perfbench::ProcessCpuNs();
  const int64_t wall0 = perfbench::NowNs();
  volatile double sink = 0;
  while (perfbench::NowNs() - wall0 < 30'000'000) sink = sink + 1.0;
  const int64_t cpu = perfbench::ProcessCpuNs() - cpu0;
  const int64_t wall = perfbench::NowNs() - wall0;
  Check(cpu > 0 && cpu <= wall + 1'000'000, "busy work: 0 < CPU time <= wall time");
}

}  // namespace

int main() {
  TestPercentile();
  TestLag();
  TestSelfTime();
  TestScopedSpan();
  TestProcessCpu();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench unit checks passed\n");
  return 0;
}
