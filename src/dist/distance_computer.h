// Metric-aware distance evaluation against one base matrix. Owns the
// metric-specific preprocessing so index code stays metric-agnostic:
//
//   - kSquaredL2:     distance = ||q - x||^2            (no preprocessing)
//   - kInnerProduct:  distance = -<q, x>                (sign flip)
//   - kCosine:        distance = 1 - <q_hat, x> / ||x||  (query normalized by
//                     PrepareQuery; 1/||x|| cached per base row at build)
//
// All metrics minimize, so TopK / rerank / ground-truth code works unchanged.
#ifndef USP_DIST_DISTANCE_COMPUTER_H_
#define USP_DIST_DISTANCE_COMPUTER_H_

#include <cstdint>
#include <vector>

#include "dist/distance_kernels.h"
#include "dist/metric.h"
#include "tensor/matrix.h"

namespace usp {

/// Caller-owned buffers for scoring one query's gathered ids (PrepareQuery
/// output and ScoreIds scores), reused across the queries of one thread.
struct ScoreScratch {
  std::vector<float> query;
  std::vector<float> scores;
};

/// Scores queries against rows of a fixed base matrix under one metric.
/// Holds a view of the base; the viewed storage (heap Matrix or mmap'd
/// container section) must outlive the computer. Construction is O(1) for L2
/// and inner product; cosine precomputes per-row inverse norms (rows with
/// zero norm score the neutral distance 1).
class DistanceComputer {
 public:
  DistanceComputer(MatrixView base, Metric metric);
  DistanceComputer(const Matrix* base, Metric metric)
      : DistanceComputer(MatrixView(*base), metric) {}

  Metric metric() const { return metric_; }
  MatrixView base() const { return base_; }

  /// Metric-specific query preprocessing, called once per query: for cosine,
  /// writes the unit-normalized query into *scratch and returns its data
  /// pointer (an all-zero query stays zero); other metrics return `query`
  /// unchanged. The returned pointer is valid while *scratch is alive and
  /// unmodified.
  const float* PrepareQuery(const float* query,
                            std::vector<float>* scratch) const;

  /// Distance (lower = closer) between a prepared query and base row `id`.
  float Distance(const float* prepared_query, uint32_t id) const;

  /// out[i] = Distance(prepared_query, ids[i]): batched gather-by-id scoring
  /// through the dispatched kernels (prefetched rows).
  void ScoreIds(const float* prepared_query, const uint32_t* ids, size_t count,
                float* out) const;

  /// out[i] = Distance(prepared_query, first_id + i) over `count` contiguous
  /// base rows: batched block scoring for brute-force scans.
  void ScoreRange(const float* prepared_query, uint32_t first_id, size_t count,
                  float* out) const;

 private:
  MatrixView base_;
  Metric metric_;
  const DistanceKernels* kernels_;
  std::vector<float> inv_norms_;  ///< cosine only: 1 / ||base row||
};

}  // namespace usp

#endif  // USP_DIST_DISTANCE_COMPUTER_H_
