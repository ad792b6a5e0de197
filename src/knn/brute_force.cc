#include "knn/brute_force.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "dist/distance_kernels.h"
#include "index/index.h"  // kInvalidId: the filtered-scan padding sentinel
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace usp {

namespace {
constexpr size_t kBaseBlock = 2048;  // base points per distance tile

KnnResult KnnImpl(MatrixView base, MatrixView queries, size_t k,
                  bool exclude_identity, size_t num_threads = 0) {
  USP_CHECK(base.cols() == queries.cols());
  USP_CHECK(k > 0 && k <= base.rows());
  const size_t nq = queries.rows(), nb = base.rows(), d = base.cols();

  KnnResult result;
  result.k = k;
  result.indices.resize(nq * k);
  result.distances.resize(nq * k);

  std::vector<float> base_norms, query_norms;
  RowSquaredNorms(base, &base_norms);
  RowSquaredNorms(queries, &query_norms);
  const DistanceKernels& kd = GetDistanceKernels();

  ParallelFor(nq, 8, num_threads, [&](size_t q_begin, size_t q_end, size_t) {
    std::vector<TopK> heaps;
    heaps.reserve(q_end - q_begin);
    for (size_t q = q_begin; q < q_end; ++q) heaps.emplace_back(k);
    std::vector<float> dots(kBaseBlock);

    for (size_t b0 = 0; b0 < nb; b0 += kBaseBlock) {
      const size_t b1 = std::min(nb, b0 + kBaseBlock);
      for (size_t q = q_begin; q < q_end; ++q) {
        const float* qv = queries.Row(q);
        const float q_norm = query_norms[q];
        kd.score_block_dot(qv, base.Row(b0), b1 - b0, d, dots.data());
        TopK& heap = heaps[q - q_begin];
        for (size_t b = b0; b < b1; ++b) {
          if (exclude_identity && b == q) continue;
          const float dist =
              std::max(0.0f, q_norm + base_norms[b] - 2.0f * dots[b - b0]);
          heap.Push(dist, static_cast<uint32_t>(b));
        }
      }
    }
    for (size_t q = q_begin; q < q_end; ++q) {
      auto sorted = heaps[q - q_begin].TakeSorted();
      for (size_t j = 0; j < k; ++j) {
        result.indices[q * k + j] = sorted[j].id;
        result.distances[q * k + j] = sorted[j].distance;
      }
    }
  });
  return result;
}

// Generic-metric brute force: per query, score base rows through the
// DistanceComputer (already in minimized form) and keep the top k. With a
// `filter`, the allowed id list is materialized once per call and only those
// rows are gather-scored (dropped rows are never scored — the pushdown
// contract — so a 1%-selectivity scan does ~1% of the distance work);
// ScoreIds applies the same per-row kernel as ScoreRange, so the results are
// bit-identical to a full scan + drop. When the filter admits fewer than k
// rows, trailing slots pad with the kInvalidId sentinel / +inf (only
// reachable with a filter: unfiltered callers check k <= rows).
KnnResult KnnImplMetric(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, const IdSelector* filter,
                        size_t num_threads) {
  USP_CHECK(base.cols() == queries.cols());
  USP_CHECK(k > 0);
  USP_CHECK(filter != nullptr || k <= base.rows());
  const size_t nq = queries.rows(), nb = base.rows();

  KnnResult result;
  result.k = k;
  result.indices.assign(nq * k, kInvalidId);
  result.distances.assign(nq * k, std::numeric_limits<float>::infinity());

  const DistanceComputer dist(base, metric);
  std::vector<uint32_t> allowed;
  if (filter != nullptr) {
    for (size_t b = 0; b < nb; ++b) {
      const uint32_t id = static_cast<uint32_t>(b);
      if (filter->is_member(id)) allowed.push_back(id);
    }
  }

  ParallelFor(nq, 8, num_threads, [&](size_t q_begin, size_t q_end, size_t) {
    std::vector<float> scores(kBaseBlock);
    std::vector<float> scratch;
    for (size_t q = q_begin; q < q_end; ++q) {
      const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch);
      TopK heap(k);
      if (filter == nullptr) {
        for (size_t b0 = 0; b0 < nb; b0 += kBaseBlock) {
          const size_t count = std::min(nb - b0, kBaseBlock);
          dist.ScoreRange(prepared, static_cast<uint32_t>(b0), count,
                          scores.data());
          for (size_t b = 0; b < count; ++b) {
            heap.Push(scores[b], static_cast<uint32_t>(b0 + b));
          }
        }
      } else {
        for (size_t a0 = 0; a0 < allowed.size(); a0 += kBaseBlock) {
          const size_t count = std::min(allowed.size() - a0, kBaseBlock);
          dist.ScoreIds(prepared, allowed.data() + a0, count, scores.data());
          for (size_t i = 0; i < count; ++i) {
            heap.Push(scores[i], allowed[a0 + i]);
          }
        }
      }
      auto sorted = heap.TakeSorted();
      for (size_t j = 0; j < sorted.size(); ++j) {
        result.indices[q * k + j] = sorted[j].id;
        result.distances[q * k + j] = sorted[j].distance;
      }
    }
  });
  return result;
}
}  // namespace

KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        size_t num_threads) {
  return KnnImpl(base, queries, k, /*exclude_identity=*/false, num_threads);
}

KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, size_t num_threads) {
  if (metric == Metric::kSquaredL2) {
    return KnnImpl(base, queries, k, /*exclude_identity=*/false, num_threads);
  }
  return KnnImplMetric(base, queries, k, metric, /*filter=*/nullptr,
                       num_threads);
}

KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, const IdSelector* filter,
                        size_t num_threads) {
  if (filter == nullptr) return BruteForceKnn(base, queries, k, metric,
                                              num_threads);
  // Filtered scans take the kernel path even for L2: the norm-trick tiles
  // produce different float rounding than ScoreIds, and the filtered contract
  // is bit-identity with the index types' rerank stage.
  return KnnImplMetric(base, queries, k, metric, filter, num_threads);
}

RadiusResult BruteForceRadius(MatrixView base, MatrixView queries,
                              float radius, Metric metric,
                              const RadiusOptions& options) {
  USP_CHECK(base.cols() == queries.cols());
  const size_t nq = queries.rows(), nb = base.rows();

  const DistanceComputer dist(base, metric);
  const IdSelector* filter = options.filter;
  std::vector<uint32_t> allowed;
  if (filter != nullptr) {
    for (size_t b = 0; b < nb; ++b) {
      const uint32_t id = static_cast<uint32_t>(b);
      if (filter->is_member(id)) allowed.push_back(id);
    }
  }
  const size_t scanned = filter == nullptr ? nb : allowed.size();
  const uint32_t dropped = static_cast<uint32_t>(nb - scanned);

  return CollectRadiusRows(
      nq, options, [&](size_t q, RadiusResult* result) {
        std::vector<float> scores(kBaseBlock);
        std::vector<float> scratch;
        const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch);
        std::vector<Neighbor> hits;
        if (filter == nullptr) {
          for (size_t b0 = 0; b0 < nb; b0 += kBaseBlock) {
            const size_t count = std::min(nb - b0, kBaseBlock);
            dist.ScoreRange(prepared, static_cast<uint32_t>(b0), count,
                            scores.data());
            for (size_t b = 0; b < count; ++b) {
              if (scores[b] <= radius) {
                hits.push_back(Neighbor{scores[b], static_cast<uint32_t>(b0 + b)});
              }
            }
          }
        } else {
          for (size_t a0 = 0; a0 < allowed.size(); a0 += kBaseBlock) {
            const size_t count = std::min(allowed.size() - a0, kBaseBlock);
            dist.ScoreIds(prepared, allowed.data() + a0, count, scores.data());
            for (size_t i = 0; i < count; ++i) {
              if (scores[i] <= radius) {
                hits.push_back(Neighbor{scores[i], allowed[a0 + i]});
              }
            }
          }
        }
        // ScoreRange/ScoreIds walk ids in ascending order and distances only
        // break ties by id, so `hits` needs an explicit sort by (distance, id)
        // like every other radius row.
        std::sort(hits.begin(), hits.end());
        result->candidate_counts[q] = static_cast<uint32_t>(scanned);
        if (result->stats) {
          result->stats->candidates_scored[q] = static_cast<uint32_t>(scanned);
          result->stats->filtered_out[q] = dropped;
        }
        return hits;
      });
}

KnnResult BuildKnnMatrix(const Matrix& data, size_t k) {
  USP_CHECK(k < data.rows());
  return KnnImpl(data, data, k, /*exclude_identity=*/true);
}

KnnResult FilterKnnToSubset(const KnnResult& global,
                            const std::vector<uint32_t>& subset_ids) {
  const size_t n = subset_ids.size();
  const size_t k = global.k;
  std::unordered_map<uint32_t, uint32_t> local_id;
  local_id.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    local_id.emplace(subset_ids[i], static_cast<uint32_t>(i));
  }
  KnnResult out;
  out.k = k;
  out.indices.resize(n * k);
  out.distances.assign(n * k, 0.0f);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < n; ++i) {
    kept.clear();
    const uint32_t* nbrs = global.Row(subset_ids[i]);
    for (size_t t = 0; t < k; ++t) {
      const auto it = local_id.find(nbrs[t]);
      if (it != local_id.end()) kept.push_back(it->second);
    }
    if (kept.empty()) kept.push_back(static_cast<uint32_t>(i));
    for (size_t t = 0; t < k; ++t) {
      out.indices[i * k + t] = kept[t % kept.size()];
    }
  }
  return out;
}

std::vector<Neighbor> RerankDistinctCandidates(
    const DistanceComputer& dist, const float* query,
    std::vector<uint32_t>* candidates, size_t k, const IdSelector* filter,
    RerankCounts* counts, ScoreScratch* scratch) {
  std::vector<uint32_t>& ids = *candidates;
  const uint32_t dropped = EraseNonMembers(filter, &ids);
  if (counts != nullptr) {
    counts->scored = static_cast<uint32_t>(ids.size());
    counts->filtered_out = dropped;
  }

  const float* prepared = dist.PrepareQuery(query, &scratch->query);
  scratch->scores.resize(ids.size());
  dist.ScoreIds(prepared, ids.data(), ids.size(), scratch->scores.data());

  // TopK keeps the strict (distance, id) order, so the result does not
  // depend on the order of `ids`.
  TopK heap(std::min(k, ids.size()));
  for (size_t i = 0; i < ids.size(); ++i) {
    heap.Push(scratch->scores[i], ids[i]);
  }
  return heap.TakeSorted();
}

std::vector<Neighbor> RerankCandidatesScored(
    const DistanceComputer& dist, const float* query,
    const std::vector<uint32_t>& candidates, size_t k,
    const IdSelector* filter, RerankCounts* counts) {
  std::vector<uint32_t> ids(candidates);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ScoreScratch scratch;
  return RerankDistinctCandidates(dist, query, &ids, k, filter, counts,
                                  &scratch);
}

std::vector<uint32_t> RerankCandidates(const DistanceComputer& dist,
                                       const float* query,
                                       const std::vector<uint32_t>& candidates,
                                       size_t k) {
  const auto sorted = RerankCandidatesScored(dist, query, candidates, k);
  std::vector<uint32_t> out;
  out.reserve(sorted.size());
  for (const auto& n : sorted) out.push_back(n.id);
  return out;
}

std::vector<uint32_t> RerankCandidates(MatrixView base, const float* query,
                                       const std::vector<uint32_t>& candidates,
                                       size_t k) {
  return RerankCandidates(DistanceComputer(base, Metric::kSquaredL2), query,
                          candidates, k);
}

}  // namespace usp
