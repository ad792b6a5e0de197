// The repository benchmark: two workloads run against the library's public
// API, each in its own process (see perfbench/README.md for why each exists,
// its sizes, and which layer metric should move which end-to-end metric).
//
//   perfbench --workload <usp-scann-batch|ivf-served-mmap>
//             --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//             [--commit <id>] [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is a
// separate run that records spans around every call into a library module
// (and inside the decorators handed to the library) and prints the per-layer
// metrics. Every run checks the library's outputs; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}, and the exit
// code is non-zero when a check failed.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace.h"
#include "usp.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using usp::BatchSearchResult;
using usp::Index;
using usp::Matrix;
using usp::MatrixView;

constexpr size_t kK = 10;
/// An open-loop generator whose p99 lateness exceeds this fell behind its
/// schedule (the run is marked invalid): two 5 ms latency limits.
constexpr double kBehindLimitUs = 10000.0;

// ---------------------------------------------------------------------------
// Arguments, output, accounting.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string commit = "unknown";
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = std::stoi(value);
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Attempted / succeeded / failed / refused operations of one phase. Refused
/// covers admission rejects and futures that were never fulfilled.
struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Detail(const std::string& key, const std::string& json) {
    details_.emplace_back(key, json);
  }
  void AddPhase(const Phase& p) { phases_.push_back(p); }
  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    errors_.push_back(what);
  }
  bool correct() const { return errors_.empty(); }

  /// Prints the detail line, then the result line (always last).
  void Print() const {
    uint64_t attempted = 0, failed = 0;
    std::string phases = "[";
    for (size_t i = 0; i < phases_.size(); ++i) {
      const Phase& p = phases_[i];
      attempted += p.attempted;
      failed += p.failed + p.refused;
      phases += (i ? "," : "") + std::string("{\"phase\":") + Str(p.name) +
                ",\"attempted\":" + std::to_string(p.attempted) +
                ",\"succeeded\":" + std::to_string(p.succeeded) +
                ",\"failed\":" + std::to_string(p.failed) +
                ",\"refused\":" + std::to_string(p.refused) + "}";
    }
    phases += "]";
    std::string detail = "{\"detail\":{\"phases\":" + phases;
    for (const auto& [key, json] : details_) detail += "," + Str(key) + ":" + json;
    std::string errs = "[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      errs += (i ? "," : "") + Str(errors_[i]);
    }
    detail += ",\"errors\":" + errs + "]}}";
    std::printf("%s\n", detail.c_str());

    std::string out = "{\"correct\":" + std::string(correct() ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(std::max<uint64_t>(attempted, 1)) +
                      ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      out += (i ? "," : "") + Str(m.name) + ":{\"value\":" + Num(m.value) +
             ",\"unit\":" + Str(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<Phase> phases_;
  std::vector<std::string> errors_;
};

/// "{"p50":..,"p99":..,"n":..,"beyond_p99":..}" for a latency sample set.
std::string LatencyJson(const std::vector<double>& us) {
  return "{\"p50\":" + Num(Percentile(us, 50)) + ",\"p99\":" +
         Num(Percentile(us, 99)) + ",\"n\":" + std::to_string(us.size()) +
         ",\"beyond_p99\":" + std::to_string(SamplesBeyond(us, 99)) + "}";
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Sleeps until `due_ns`. No spinning: a spinning generator takes a core from
/// the threads it measures (main() sets a 1 ns timer slack instead, so the
/// sleep overshoots by the wake-up latency only).
void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

// ---------------------------------------------------------------------------
// Inputs and reference checks.
// ---------------------------------------------------------------------------

struct Data {
  Matrix base;
  Matrix queries;
};

/// One SIFT-like draw split into base and queries, so both come from the same
/// mixture. The seed fully determines the inputs.
Data MakeData(size_t n, size_t nq, uint64_t seed) {
  const Matrix all = usp::MakeSiftLike(n + nq, seed);
  const size_t d = all.cols();
  Data data{Matrix(n, d), Matrix(nq, d)};
  std::copy(all.Row(0), all.Row(0) + n * d, data.base.data());
  std::copy(all.Row(n), all.Row(n) + nq * d, data.queries.data());
  return data;
}

/// Mean recall@k of `result` against exact truth rows.
double Recall(const BatchSearchResult& result, const usp::KnnResult& truth) {
  return usp::KnnAccuracy(result, truth.indices, truth.k);
}

bool SameRow(const BatchSearchResult& a, size_t qa, const BatchSearchResult& b,
             size_t qb) {
  return a.k == b.k &&
         std::memcmp(a.Row(qa), b.Row(qb), a.k * sizeof(uint32_t)) == 0 &&
         std::memcmp(a.DistanceRow(qa), b.DistanceRow(qb),
                     a.k * sizeof(float)) == 0;
}

uint64_t HashRow(const float* row, size_t d) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(row);
  for (size_t i = 0; i < d * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Decorators handed to the library (tracing only; results pass through).
// ---------------------------------------------------------------------------

/// BinScorer wrapper given to ScannIndex: times every ScoreBins call.
class TimedScorer final : public usp::BinScorer {
 public:
  TimedScorer(const usp::BinScorer* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  size_t num_bins() const override { return inner_->num_bins(); }
  Matrix ScoreBins(MatrixView points) const override {
    ScopedSpan span(tracer_, "core.score_bins");
    span.set_count(static_cast<double>(points.rows()));
    return inner_->ScoreBins(points);
  }

 private:
  const usp::BinScorer* inner_;
  Tracer* tracer_;
};

/// Index wrapper given to the BatchingExecutor: times every SearchBatch call
/// made through it (one span per coalesced batch plus queue-wait and exec
/// spans per request).
class TimedIndex final : public Index {
 public:
  TimedIndex(const Index* inner, Tracer* tracer, const char* span_name)
      : inner_(inner), tracer_(tracer), span_name_(span_name) {}

  /// Announces a request about to be submitted: rows with these bytes map
  /// to (request id, root span id, send time), first in first out.
  void Expect(const float* row, uint64_t request, uint64_t root, int64_t sent_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    expected_[HashRow(row, dim())].push_back({request, root, sent_ns});
  }

  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const usp::SearchRequest& request) const override {
    if (!tracer_->enabled()) return inner_->SearchBatch(request);
    const int64_t start = NowNs();
    BatchSearchResult result;
    {
      ScopedSpan span(tracer_, span_name_);
      span.set_count(static_cast<double>(request.queries.rows()));
      result = inner_->SearchBatch(request);
    }
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t r = 0; r < request.queries.rows() && !expected_.empty(); ++r) {
      auto it = expected_.find(HashRow(request.queries.Row(r), dim()));
      if (it == expected_.end() || it->second.empty()) continue;
      const Pending p = it->second.front();
      it->second.pop_front();
      Span wait{"serve.queue_wait", tracer_->NewId(), p.root, p.request,
                p.sent_ns, start, 1};
      Span exec{"serve.exec", tracer_->NewId(), p.root, p.request, start, end,
                static_cast<double>(request.queries.rows())};
      tracer_->Record(std::move(wait));
      tracer_->Record(std::move(exec));
    }
    return result;
  }

  usp::RadiusResult RadiusSearchBatch(const usp::RadiusRequest& r) const override {
    return inner_->RadiusSearchBatch(r);
  }
  size_t dim() const override { return inner_->dim(); }
  size_t size() const override { return inner_->size(); }
  usp::Metric metric() const override { return inner_->metric(); }
  usp::IndexType type() const override { return inner_->type(); }
  MatrixView base_view() const override { return inner_->base_view(); }
  size_t EstimateCandidates(size_t budget) const override {
    return inner_->EstimateCandidates(budget);
  }
  const Index& underlying() const override { return inner_->underlying(); }

 private:
  struct Pending {
    uint64_t request;
    uint64_t root;
    int64_t sent_ns;
  };
  const Index* inner_;
  Tracer* tracer_;
  const char* span_name_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<uint64_t, std::deque<Pending>> expected_;
};

// ---------------------------------------------------------------------------
// Common context.
// ---------------------------------------------------------------------------

struct Context {
  Args args;
  Tracer tracer;
  Report report;
  Tracer* traced() { return args.trace ? &tracer : nullptr; }
};

void PrintProvenance(const Context& ctx) {
  std::printf(
      "{\"provenance\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"scale\":%s,\"float_isa\":%s,\"quant_isa\":%s,"
      "\"nproc\":%u,\"pool_threads\":%zu,\"build_type\":%s,\"commit\":%s}}\n",
      Str(ctx.args.workload).c_str(),
      static_cast<unsigned long long>(ctx.args.seed), Num(ctx.args.seconds).c_str(),
      ctx.args.trace, Str(ctx.args.tiny ? "tiny" : "full").c_str(),
      Str(usp::GetDistanceKernels().name).c_str(),
      Str(usp::GetQuantKernels().name).c_str(),
      std::thread::hardware_concurrency(),
      usp::ThreadPool::Global().num_threads(), Str(PERFBENCH_BUILD_TYPE).c_str(),
      Str(ctx.args.commit).c_str());
  std::fflush(stdout);
}

/// Median over set-up repetitions of each named step. "setup_s" is the
/// process CPU time of the whole set-up (all threads); the rest are wall time.
struct SetupTimes {
  std::map<std::string, std::vector<double>> steps;
  void Add(const std::string& name, double s) { steps[name].push_back(s); }
  double Median(const std::string& name) const {
    auto it = steps.find(name);
    return it == steps.end() ? 0.0 : perfbench::Median(it->second);
  }
  std::string Json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, v] : steps) {
      out += (first ? "" : ",") + Str(name) + ":[";
      for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + Num(v[i]);
      out += "]";
      first = false;
    }
    return out + "}";
  }
};

// ---------------------------------------------------------------------------
// W1: usp-scann-batch — the paper's Fig. 7 pipeline, closed loop.
// ---------------------------------------------------------------------------

/// Sizes of one workload. Each run builds `instances` independent instances
/// (own data draw and training seed, both derived from --seed) and measures
/// each for an equal share of --seconds right after its set-up, so one run
/// averages over several partitions and spreads its timing over the whole
/// process; set-up metrics are medians over the instances.
struct W1Config {
  size_t n, nq, bins, epochs, probes, pq_m, rerank, batch;
  int instances;
};

struct W1Index {
  std::unique_ptr<usp::UspPartitioner> usp;
  std::unique_ptr<TimedScorer> scorer;
  std::unique_ptr<usp::ScannIndex> index;
};

struct ClosedLoop {
  std::vector<double> call_us;
  std::vector<double> window_qps;
  std::vector<double> window_cpu_us;  ///< process CPU µs per query
  uint64_t calls = 0;
  uint64_t mismatches = 0;
  double candidates = 0;

  void Append(const ClosedLoop& other) {
    call_us.insert(call_us.end(), other.call_us.begin(), other.call_us.end());
    window_qps.insert(window_qps.end(), other.window_qps.begin(), other.window_qps.end());
    window_cpu_us.insert(window_cpu_us.end(), other.window_cpu_us.begin(),
                         other.window_cpu_us.end());
    calls += other.calls;
    mismatches += other.mismatches;
    candidates += other.candidates;
  }
};

/// One caller issuing SearchBatch (library-default threads) over consecutive
/// slices of the query set for `seconds`; every result row is checked
/// against `reference`. Throughput is sampled in 0.25 s windows, in wall
/// time and in process CPU time.
ClosedLoop RunClosedLoop(const Index& index, const Matrix& queries, size_t batch,
                         size_t budget, double seconds,
                         const BatchSearchResult& reference, Tracer* tracer) {
  ClosedLoop out;
  const size_t nq = queries.rows();
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  int64_t window_start = start;
  int64_t window_cpu = ProcessCpuNs();
  uint64_t window_queries = 0;
  size_t offset = 0;
  while (true) {
    const int64_t now = NowNs();
    if (now >= stop) break;
    const size_t b = std::min(batch, nq - offset);
    const MatrixView view(queries.Row(offset), b, queries.cols());
    const int64_t t0 = NowNs();
    BatchSearchResult result;
    {
      ScopedSpan span(tracer, "quant.search_batch",
                      tracer != nullptr && tracer->enabled() ? tracer->NewId() : 0);
      result = index.SearchBatch(view, kK, budget);
      double cands = 0;
      for (uint32_t c : result.candidate_counts) cands += c;
      span.set_count(cands);
      out.candidates += cands;
    }
    const int64_t t1 = NowNs();
    out.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    for (size_t r = 0; r < b; ++r) {
      if (!SameRow(result, r, reference, offset + r)) ++out.mismatches;
    }
    ++out.calls;
    window_queries += b;
    if (t1 - window_start >= 250'000'000) {
      out.window_qps.push_back(static_cast<double>(window_queries) /
                               Seconds(t1 - window_start));
      const int64_t cpu = ProcessCpuNs();
      out.window_cpu_us.push_back(static_cast<double>(cpu - window_cpu) / 1e3 /
                                  static_cast<double>(window_queries));
      window_cpu = cpu;
      window_start = t1;
      window_queries = 0;
    }
    offset = (offset + b) % nq;
  }
  return out;
}

void RunUspScannBatch(Context* ctx) {
  const W1Config cfg = ctx->args.tiny
                           ? W1Config{3000, 200, 8, 3, 2, 16, 60, 20, 3}
                           : W1Config{30000, 2000, 32, 8, 3, 32, 150, 50, 4};
  Report& rep = ctx->report;
  Tracer* tracer = ctx->traced();
  const double slice = ctx->args.seconds / cfg.instances;

  SetupTimes setup;
  std::vector<double> recalls, balances, candidates;
  Phase phase{"search"};
  ClosedLoop plain, traced;
  std::vector<Span> spans;
  for (int inst = 0; inst < cfg.instances; ++inst) {
    const uint64_t seed = ctx->args.seed * static_cast<uint64_t>(cfg.instances) +
                          static_cast<uint64_t>(inst);
    const Data data = MakeData(cfg.n, cfg.nq, seed);
    const usp::KnnResult truth = usp::BruteForceKnn(data.base, data.queries, kK);

    if (tracer != nullptr) tracer->set_enabled(true);
    W1Index w;
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    usp::KnnResult graph;
    {
      ScopedSpan span(tracer, "knn.build_exact");
      usp::KnnGraphConfig gc;
      gc.k = 10;
      graph = usp::KnnGraphBuilder(gc).BuildExact(data.base);
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan span(tracer, "core.train");
      usp::UspTrainConfig tc;
      tc.num_bins = cfg.bins;
      tc.epochs = cfg.epochs;
      tc.seed = seed;
      w.usp = std::make_unique<usp::UspPartitioner>(tc);
      w.usp->Train(data.base, graph);
    }
    const int64_t t2 = NowNs();
    const usp::BinScorer* scorer = w.usp.get();
    if (tracer != nullptr) {
      w.scorer = std::make_unique<TimedScorer>(w.usp.get(), tracer);
      scorer = w.scorer.get();
    }
    {
      ScopedSpan span(tracer, "quant.build");
      usp::PqConfig pc;
      pc.num_subspaces = cfg.pq_m;
      pc.codebook_size = 16;
      pc.seed = seed;
      usp::ProductQuantizer pq(pc);
      pq.Train(data.base);
      usp::ScannIndexConfig sc;
      sc.rerank_budget = cfg.rerank;
      w.index = std::make_unique<usp::ScannIndex>(&data.base, scorer,
                                                  std::move(pq), sc);
    }
    const int64_t t3 = NowNs();
    if (tracer != nullptr) tracer->set_enabled(false);
    setup.Add("setup_s", Seconds(ProcessCpuNs() - cpu0));
    setup.Add("setup_wall_s", Seconds(t3 - t0));
    setup.Add("graph_s", Seconds(t1 - t0));
    setup.Add("train_s", Seconds(t2 - t1));
    setup.Add("quant_build_s", Seconds(t3 - t2));
    const usp::ScannIndex& index = *w.index;
    if (!index.has_fast_scan()) rep.Fail("W1 index did not engage 4-bit fast-scan");

    // Reference answers and recall, outside every timed region.
    const BatchSearchResult reference = index.SearchBatch(data.queries, kK, cfg.probes);
    const double recall = Recall(reference, truth);
    recalls.push_back(recall);
    balances.push_back(usp::BalanceRatio(w.usp->AssignBins(data.base), cfg.bins));
    candidates.push_back(reference.MeanCandidates());
    if (!ctx->args.tiny && (recall < 0.85 || recall > 0.95)) {
      rep.Fail("W1 recall@10 " + Num(recall) + " outside [0.85, 0.95]");
    }

    // Warm-up, then this instance's share of the measured closed loop (the
    // traced run: an untraced half and a traced half).
    RunClosedLoop(index, data.queries, cfg.batch, cfg.probes, std::min(0.5, slice / 10),
                  reference, nullptr);
    if (ctx->args.trace == 0) {
      plain.Append(RunClosedLoop(index, data.queries, cfg.batch, cfg.probes, slice,
                                 reference, nullptr));
      continue;
    }
    plain.Append(RunClosedLoop(index, data.queries, cfg.batch, cfg.probes, slice / 2,
                               reference, nullptr));
    const size_t mark = tracer->size();
    tracer->set_enabled(true);
    traced.Append(RunClosedLoop(index, data.queries, cfg.batch, cfg.probes, slice / 2,
                                reference, tracer));
    tracer->set_enabled(false);
    const std::vector<Span> part = tracer->Spans(mark);
    spans.insert(spans.end(), part.begin(), part.end());
  }
  for (const ClosedLoop* loop : {&plain, &traced}) {
    phase.attempted += loop->calls;
    phase.succeeded += loop->calls;
    if (loop->mismatches > 0) {
      rep.Fail("W1 SearchBatch rows differ from the reference: " +
               std::to_string(loop->mismatches));
    }
  }
  rep.AddPhase(phase);
  rep.Detail("setup_reps_s", setup.Json());
  rep.Detail("recall_at_10", Num(Mean(recalls)));
  rep.Detail("balance_ratio", Num(Mean(balances)));
  rep.Detail("candidates_per_query", Num(Mean(candidates)));

  if (ctx->args.trace == 0) {
    rep.Detail("batch_latency_us", LatencyJson(plain.call_us));
    rep.Detail("queries_per_call", std::to_string(cfg.batch));
    rep.Detail("qps", Num(Median(plain.window_qps)));
    rep.Detail("cpu_us_per_query_windows",
               "{\"n\":" + std::to_string(plain.window_cpu_us.size()) +
                   ",\"p10\":" + Num(Percentile(plain.window_cpu_us, 10)) +
                   ",\"p90\":" + Num(Percentile(plain.window_cpu_us, 90)) + "}");
    rep.Metric("setup_s", setup.Median("setup_s"), "s");
    rep.Metric("cpu_us_per_op", Median(plain.window_cpu_us), "us");
    rep.Metric("recall_at_10", Mean(recalls), "fraction");
    rep.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  double score_ns = 0, scored_rows = 0;
  for (const Span& s : spans) {
    if (s.name == "core.score_bins") {
      score_ns += static_cast<double>(s.end_ns - s.start_ns);
      scored_rows += s.count;
    }
  }
  double scan_self_ns = 0;
  for (double v : SelfTimesNs(spans, "quant.search_batch")) scan_self_ns += v;
  const double overhead = (Mean(traced.call_us) / Mean(plain.call_us)) - 1.0;

  rep.Metric("knn.graph_s", setup.Median("graph_s"), "s");
  rep.Metric("core.train_s", setup.Median("train_s"), "s");
  rep.Metric("core.balance_ratio", Mean(balances), "ratio");
  rep.Metric("core.candidates_per_query", Mean(candidates), "count");
  rep.Metric("core.score_us_per_query", score_ns / 1e3 / std::max(1.0, scored_rows),
             "us");
  rep.Metric("quant.build_s", setup.Median("quant_build_s"), "s");
  rep.Metric("quant.scan_ns_per_candidate",
             scan_self_ns / std::max(1.0, traced.candidates), "ns");
  rep.Metric("bench.qps", Median(plain.window_qps), "1/s");
  rep.Metric("bench.latency_p50_us", Percentile(plain.call_us, 50), "us");
  rep.Metric("bench.latency_p99_us", Percentile(plain.call_us, 99), "us");
  rep.Metric("bench.trace_overhead_frac", overhead, "fraction");
}

// ---------------------------------------------------------------------------
// Open-loop single-query traffic through a BatchingExecutor (W2).
// ---------------------------------------------------------------------------

struct OpenLoop {
  std::vector<double> latency_us;  ///< from due time to result
  std::vector<double> lag_us;      ///< generator lateness
  std::vector<double> window_cpu_us;  ///< process CPU µs per request, per second of sends
  uint64_t attempted = 0, succeeded = 0, failed = 0, refused = 0;
  uint64_t mismatches = 0;
  size_t backlog_at_end = 0;  ///< requests in flight when sending stopped
  double elapsed_s = 0;
};

/// Sends queries (cycling through `queries`) at `rate`
/// per second for `seconds`, one generator thread submitting and one
/// collector thread waiting on the futures in order. Every answer is checked
/// bit-for-bit against `reference`.
OpenLoop RunOpenLoop(usp::BatchingExecutor* exec, TimedIndex* timed,
                     const Matrix& queries, size_t budget,
                     double rate, double seconds,
                     const BatchSearchResult& reference, Tracer* tracer) {
  struct InFlight {
    size_t row;
    int64_t due;
    uint64_t request;
    uint64_t root;
    std::future<usp::SingleSearchResult> future;
  };
  OpenLoop out;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> inflight;  // guarded by mutex
  bool done_sending = false;      // guarded by mutex
  const bool tracing = tracer != nullptr && tracer->enabled();
  const size_t total = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  const double period_ns = 1e9 / rate;
  const int64_t start = NowNs() + 1'000'000;
  uint64_t unfulfilled = 0;  // written by the collector only
  const size_t window = std::max<size_t>(1, static_cast<size_t>(rate));
  int64_t window_cpu = 0;

  std::thread collector([&] {
    while (true) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !inflight.empty() || done_sending; });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      if (item.future.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        ++unfulfilled;
        continue;
      }
      const usp::SingleSearchResult got = item.future.get();
      const int64_t done = NowNs();
      out.latency_us.push_back(static_cast<double>(done - item.due) / 1e3);
      const bool same =
          got.k == reference.k &&
          std::memcmp(got.ids.data(), reference.Row(item.row),
                      kK * sizeof(uint32_t)) == 0 &&
          std::memcmp(got.distances.data(), reference.DistanceRow(item.row),
                      kK * sizeof(float)) == 0;
      if (same) {
        ++out.succeeded;
      } else {
        ++out.failed;
        ++out.mismatches;
      }
      if (tracing) {
        tracer->Record(Span{"bench.request", item.root, 0, item.request,
                            item.due, done, 1});
      }
    }
  });

  usp::SearchOptions options;
  options.k = kK;
  options.budget = budget;
  for (size_t i = 0; i < total; ++i) {
    const int64_t due = start + static_cast<int64_t>(period_ns * static_cast<double>(i));
    const int64_t free_at = NowNs();
    SleepUntilNs(due);
    const int64_t sent = NowNs();
    out.lag_us.push_back(LagUs(std::max(due, free_at), sent));
    if (i % window == 0) {
      const int64_t cpu = ProcessCpuNs();
      if (i > 0) {
        out.window_cpu_us.push_back(static_cast<double>(cpu - window_cpu) / 1e3 /
                                    static_cast<double>(window));
      }
      window_cpu = cpu;
    }
    const size_t row = i % queries.rows();
    uint64_t request = 0, root = 0;
    if (tracing) {
      request = tracer->NewId();
      root = tracer->NewId();
      timed->Expect(queries.Row(row), request, root, sent);
    }
    ++out.attempted;
    auto submitted = exec->Submit(queries.Row(row), options);
    if (!submitted.ok()) {
      ++out.refused;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      inflight.push_back({row, due, request, root, std::move(submitted).value()});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    out.backlog_at_end = inflight.size();
    done_sending = true;
  }
  cv.notify_all();
  collector.join();
  const size_t last = total - (total - 1) / window * window;  // sends since the last mark
  out.window_cpu_us.push_back(static_cast<double>(ProcessCpuNs() - window_cpu) / 1e3 /
                              static_cast<double>(last));
  out.refused += unfulfilled;
  out.elapsed_s = Seconds(NowNs() - start);
  return out;
}

/// Per-stage timings of the flat query path replayed through public calls.
struct FlatReplay {
  double score_ns = 0, collect_ns = 0, rerank_ns = 0;
  double gathered = 0, scored = 0;
  uint64_t mismatches = 0;

  void AddMetrics(Report* rep) const {
    rep->Metric("dist.rerank_ns_per_candidate", rerank_ns / std::max(1.0, gathered),
                "ns");
    rep->Metric("dist.unique_candidate_ratio", scored / std::max(1.0, gathered),
                "ratio");
  }
};

/// Replays IvfFlatIndex::SearchBatch serially as ScoreBins ->
/// CollectCandidates -> RerankCandidatesScored, timing each stage (clock
/// reads sit inside the spans, so span bookkeeping is not counted), and
/// checks every row (ids, distances, scored count) against `reference`.
FlatReplay ReplayFlatPath(const usp::IvfFlatIndex& ivf, const Matrix& queries,
                          size_t nprobe, const BatchSearchResult& reference,
                          Tracer* tracer) {
  FlatReplay out;
  ScopedSpan root(tracer, "bench.replay",
                  tracer != nullptr && tracer->enabled() ? tracer->NewId() : 0);
  const usp::PartitionIndex& part = ivf.partition();
  const usp::DistanceComputer dist(part.base(), ivf.metric());
  Matrix scores;
  {
    ScopedSpan span(tracer, "core.score_bins");
    const int64_t s0 = NowNs();
    scores = ivf.coarse_quantizer().ScoreBins(queries);
    out.score_ns = static_cast<double>(NowNs() - s0);
  }
  std::vector<uint32_t> candidates;
  for (size_t q = 0; q < queries.rows(); ++q) {
    {
      ScopedSpan span(tracer, "core.collect");
      const int64_t c0 = NowNs();
      part.CollectCandidates(scores.Row(q), nprobe, &candidates);
      out.collect_ns += static_cast<double>(NowNs() - c0);
    }
    usp::RerankCounts counts;
    std::vector<usp::Neighbor> hits;
    {
      ScopedSpan span(tracer, "dist.rerank");
      const int64_t r0 = NowNs();
      hits = usp::RerankCandidatesScored(dist, queries.Row(q), candidates, kK,
                                         nullptr, &counts);
      out.rerank_ns += static_cast<double>(NowNs() - r0);
      span.set_count(static_cast<double>(candidates.size()));
    }
    out.gathered += static_cast<double>(candidates.size());
    out.scored += counts.scored;
    BatchSearchResult row;
    row.k = kK;
    row.AllocatePadded(1);
    row.SetRow(0, hits);
    if (!SameRow(row, 0, reference, q) ||
        counts.scored != reference.candidate_counts[q]) {
      ++out.mismatches;
    }
  }
  return out;
}

struct W2Config {
  size_t n, nq, nlist, nprobe, kmeans_iters;
  double ref_rate;
  int setup_reps;
};

void RunIvfServedMmap(Context* ctx) {
  const W2Config cfg = ctx->args.tiny
                           ? W2Config{5000, 200, 16, 2, 10, 300, 3}
                           : W2Config{100000, 2000, 256, 4, 10, 1000, 5};
  Report& rep = ctx->report;
  Tracer* tracer = ctx->traced();
  const Data data = MakeData(cfg.n, cfg.nq, ctx->args.seed);
  const usp::KnnResult truth = usp::BruteForceKnn(data.base, data.queries, kK);
  const std::filesystem::path dir = std::filesystem::path(ctx->args.work_dir);
  std::filesystem::create_directories(dir);

  usp::IvfConfig ivf_cfg;
  ivf_cfg.nlist = cfg.nlist;
  ivf_cfg.kmeans_iterations = cfg.kmeans_iters;
  ivf_cfg.seed = ctx->args.seed;

  SetupTimes setup;
  std::unique_ptr<Index> served;
  std::vector<std::filesystem::path> files;
  double file_mb = 0;
  for (int rep_i = 0; rep_i < cfg.setup_reps; ++rep_i) {
    served.reset();  // never save over a file that is still mapped
    const std::filesystem::path path =
        dir / ("ivf-" + std::to_string(ctx->args.seed) + "-" +
               std::to_string(rep_i) + ".usp");
    files.push_back(path);
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    std::unique_ptr<usp::KMeansPartitioner> km;
    {
      ScopedSpan span(tracer, "baselines.kmeans");
      usp::KMeansConfig kc;
      kc.num_clusters = cfg.nlist;
      kc.max_iterations = cfg.kmeans_iters;
      kc.seed = ctx->args.seed;
      km = std::make_unique<usp::KMeansPartitioner>(data.base, kc);
    }
    const int64_t t1 = NowNs();
    std::unique_ptr<usp::IvfFlatIndex> ivf;
    {
      ScopedSpan span(tracer, "core.assign");
      ivf = std::make_unique<usp::IvfFlatIndex>(
          MatrixView(data.base), ivf_cfg, km->centroids().Clone(),
          km->AssignBins(data.base));
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(tracer, "index.save");
      const usp::Status st = usp::SaveIndex(*ivf, path.string());
      if (!st.ok()) rep.Fail("SaveIndex: " + st.ToString());
    }
    const int64_t t3 = NowNs();
    {
      ScopedSpan span(tracer, "index.open");
      auto opened = usp::OpenIndex(path.string(), usp::LoadMode::kMmap);
      if (!opened.ok()) {
        rep.Fail("OpenIndex: " + opened.status().ToString());
        for (const auto& f : files) std::filesystem::remove(f);
        return;
      }
      served = std::move(opened).value();
    }
    const int64_t t4 = NowNs();
    setup.Add("setup_s", Seconds(ProcessCpuNs() - cpu0));
    setup.Add("setup_wall_s", Seconds(t4 - t0));
    setup.Add("kmeans_s", Seconds(t1 - t0));
    setup.Add("assign_s", Seconds(t2 - t1));
    setup.Add("save_s", Seconds(t3 - t2));
    setup.Add("open_s", Seconds(t4 - t3));
    file_mb = static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
  }

  const auto* ivf = dynamic_cast<const usp::IvfFlatIndex*>(&served->underlying());
  if (ivf == nullptr) {
    rep.Fail("OpenIndex did not return an IVF-Flat index");
    served.reset();
    for (const auto& f : files) std::filesystem::remove(f);
    return;
  }
  const BatchSearchResult reference =
      served->SearchBatch(data.queries, kK, cfg.nprobe);
  const double recall = Recall(reference, truth);
  if (!ctx->args.tiny && recall < 0.9) {
    rep.Fail("W2 recall@10 " + Num(recall) + " below 0.9");
  }

  const FlatReplay replay = ReplayFlatPath(*ivf, data.queries, cfg.nprobe,
                                           reference, tracer);
  if (replay.mismatches > 0) {
    rep.Fail("flat-path replay differs from SearchBatch on " +
             std::to_string(replay.mismatches) + " queries");
  }

  if (tracer != nullptr) tracer->set_enabled(false);
  TimedIndex timed(served.get(), &ctx->tracer, "serve.batch");
  const Index* exec_index = tracer != nullptr ? static_cast<const Index*>(&timed)
                                              : served.get();
  usp::BatchingExecutorConfig ec;
  rep.Detail("recall_at_10", Num(recall));
  rep.Detail("setup_reps_s", setup.Json());
  Phase ref_phase{"reference_rate"};
  auto account = [&](Phase* phase, const OpenLoop& loop) {
    phase->attempted += loop.attempted;
    phase->succeeded += loop.succeeded;
    phase->failed += loop.failed;
    phase->refused += loop.refused;
    if (loop.mismatches > 0) {
      rep.Fail("executor answers differ from SearchBatch on " +
               std::to_string(loop.mismatches) + " requests");
    }
  };
  std::vector<Span> spans;
  bool behind = false;
  double send_lag_p99 = 0;
  {
    usp::BatchingExecutor exec(exec_index, ec);
    // Warm-up: fault the mapping in and let the pool spin up.
    RunOpenLoop(&exec, &timed, data.queries, cfg.nprobe, cfg.ref_rate,
                std::min(0.5, ctx->args.seconds / 10), reference, nullptr);
    exec.Drain();
    if (ctx->args.trace == 0) {
      const OpenLoop loop =
          RunOpenLoop(&exec, &timed, data.queries, cfg.nprobe, cfg.ref_rate,
                      ctx->args.seconds, reference, nullptr);
      account(&ref_phase, loop);
      rep.AddPhase(ref_phase);
      send_lag_p99 = Percentile(loop.lag_us, 99);
      behind = FellBehind(loop.lag_us, kBehindLimitUs);
      rep.Detail("latency_us", LatencyJson(loop.latency_us));
      rep.Detail("send_lag_us", LatencyJson(loop.lag_us));
      rep.Detail("offered_rate", Num(cfg.ref_rate));
      rep.Detail("qps", Num(static_cast<double>(loop.succeeded) / loop.elapsed_s));
      rep.Detail("cpu_us_per_request_windows",
                 "{\"n\":" + std::to_string(loop.window_cpu_us.size()) +
                     ",\"p10\":" + Num(Percentile(loop.window_cpu_us, 10)) +
                     ",\"p90\":" + Num(Percentile(loop.window_cpu_us, 90)) + "}");
      rep.Detail("generator_behind", behind ? "true" : "false");
      if (behind) rep.Fail("generator fell behind its schedule; run invalid");
      rep.Metric("setup_s", setup.Median("setup_s"), "s");
      rep.Metric("cpu_us_per_op", Median(loop.window_cpu_us), "us");
      rep.Metric("recall_at_10", recall, "fraction");
      rep.Metric("peak_rss_mb", PeakRssMb(), "MB");
      exec.Shutdown();
    } else {
      const double third = ctx->args.seconds * 0.3;
      const OpenLoop plain =
          RunOpenLoop(&exec, &timed, data.queries, cfg.nprobe, cfg.ref_rate,
                      third, reference, nullptr);
      exec.Drain();
      const size_t mark = tracer->size();
      tracer->set_enabled(true);
      const OpenLoop traced =
          RunOpenLoop(&exec, &timed, data.queries, cfg.nprobe, cfg.ref_rate,
                      third, reference, tracer);
      exec.Drain();
      tracer->set_enabled(false);
      spans = tracer->Spans(mark);
      account(&ref_phase, plain);
      account(&ref_phase, traced);
      rep.AddPhase(ref_phase);
      send_lag_p99 = Percentile(traced.lag_us, 99);
      behind = FellBehind(plain.lag_us, kBehindLimitUs) || FellBehind(traced.lag_us, kBehindLimitUs);
      if (behind) rep.Fail("generator fell behind its schedule; run invalid");

      // Capacity ladder: x1.5 steps until a step misses p99 <= 5 ms (or
      // fails, leaves a growing backlog, or its generator falls behind),
      // then 5% steps above the last passing rate.
      Phase ladder_phase{"ladder"};
      constexpr int kLadderSteps = 20;
      const double step_s = ctx->args.seconds * 0.4 / kLadderSteps;
      double pass = 0, rate = cfg.ref_rate;
      bool fine = false, knee = false;
      std::string steps = "[";
      for (int step = 0; step < kLadderSteps; ++step) {
        const OpenLoop loop = RunOpenLoop(&exec, &timed, data.queries,
                                          cfg.nprobe, rate, step_s, reference,
                                          nullptr);
        exec.Drain();
        account(&ladder_phase, loop);
        const double p99 = Percentile(loop.latency_us, 99);
        const size_t backlog_limit =
            std::max(2 * ec.max_batch, static_cast<size_t>(rate * 0.005));
        const bool ok = loop.failed == 0 && loop.refused == 0 && p99 <= 5000.0 &&
                        loop.backlog_at_end <= backlog_limit &&
                        !FellBehind(loop.lag_us, kBehindLimitUs);
        steps += (step ? "," : "") + std::string("{\"rate\":") + Num(rate) +
                 ",\"p99_us\":" + Num(p99) + ",\"ok\":" + (ok ? "true" : "false") + "}";
        if (ok) {
          pass = rate;
          rate *= fine ? 1.05 : 1.5;
          continue;
        }
        knee = true;
        if (fine || pass == 0) break;
        fine = true;
        rate = pass * 1.05;
      }
      rep.AddPhase(ladder_phase);
      rep.Detail("ladder", steps + "]");
      rep.Detail("ladder_found_knee", knee ? "true" : "false");
      exec.Shutdown();

      const std::vector<double> exec_us = [&] {
        std::vector<double> v = DurationsNs(spans, "serve.batch");
        for (double& x : v) x /= 1e3;
        return v;
      }();
      std::vector<double> wait_us = DurationsNs(spans, "serve.queue_wait");
      for (double& x : wait_us) x /= 1e3;
      std::vector<double> widths;
      for (const Span& s : spans) {
        if (s.name == "serve.batch") widths.push_back(s.count);
      }
      const double overhead =
          Median(traced.latency_us) / Median(plain.latency_us) - 1.0;
      rep.Detail("exec_us", LatencyJson(exec_us));
      rep.Detail("queue_wait_us", LatencyJson(wait_us));
      rep.Metric("core.balance_ratio",
                 usp::BalanceRatio(ivf->partition().assignments(), cfg.nlist), "ratio");
      rep.Metric("core.candidates_per_query", replay.gathered / cfg.nq, "count");
      rep.Metric("core.score_us_per_query", replay.score_ns / 1e3 / cfg.nq, "us");
      rep.Metric("core.collect_ns_per_query", replay.collect_ns / cfg.nq, "ns");
      rep.Metric("baselines.kmeans_s", setup.Median("kmeans_s"), "s");
      replay.AddMetrics(&rep);
      rep.Metric("index.save_s", setup.Median("save_s"), "s");
      rep.Metric("index.open_s", setup.Median("open_s"), "s");
      rep.Metric("index.file_mb", file_mb, "MB");
      rep.Metric("serve.exec_us_p50", Percentile(exec_us, 50), "us");
      rep.Metric("serve.exec_us_p99", Percentile(exec_us, 99), "us");
      rep.Metric("serve.queue_wait_us_p50", Percentile(wait_us, 50), "us");
      rep.Metric("serve.queue_wait_us_p99", Percentile(wait_us, 99), "us");
      rep.Metric("serve.batch_width_mean", Mean(widths), "count");
      rep.Metric("serve.admission_rejects",
                 static_cast<double>(ref_phase.refused + ladder_phase.refused),
                 "count");
      rep.Metric("serve.sustained_qps", pass, "1/s");
      rep.Metric("bench.send_lag_us_p99", send_lag_p99, "us");
      rep.Metric("bench.qps", static_cast<double>(plain.succeeded) / plain.elapsed_s, "1/s");
      rep.Metric("bench.latency_p50_us", Percentile(plain.latency_us, 50), "us");
      rep.Metric("bench.latency_p99_us", Percentile(plain.latency_us, 99), "us");
      rep.Metric("bench.trace_overhead_frac", overhead, "fraction");
    }
  }
  served.reset();
  for (const auto& f : files) std::filesystem::remove(f);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Context ctx;
  if (!perfbench::ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale full|tiny] [--commit <id>] "
                 "[--work-dir <dir>]\n");
    return 2;
  }
  const std::map<std::string, void (*)(perfbench::Context*)> workloads = {
      {"usp-scann-batch", perfbench::RunUspScannBatch},
      {"ivf-served-mmap", perfbench::RunIvfServedMmap},
  };
  const auto it = workloads.find(ctx.args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", ctx.args.workload.c_str());
    return 2;
  }
  // Threads inherit the creator's timer slack: set it before any exist.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // A fixed mmap threshold turns off glibc's history-dependent one, so large
  // freed blocks go back to the OS and peak_rss_mb reflects live memory
  // rather than which thread freed what first.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  perfbench::PrintProvenance(ctx);
  ctx.tracer.set_enabled(ctx.args.trace == 1);
  it->second(&ctx);
  if (ctx.args.trace == 1) {
    const std::string path = ctx.args.work_dir + "/trace-" + ctx.args.workload + ".jsonl";
    if (!ctx.tracer.WriteJsonLines(path)) ctx.report.Fail("cannot write " + path);
  }
  ctx.report.Print();
  return ctx.report.correct() ? 0 : 1;
}
