#include "core/partition_index.h"

#include <unordered_set>

#include "index/query_planner.h"

namespace usp {

PartitionIndex::PartitionIndex(const Matrix* base, const BinScorer* scorer,
                               Metric metric)
    : PartitionIndex(MatrixView(*base), scorer, scorer->AssignBins(*base),
                     metric) {}

PartitionIndex::PartitionIndex(const Matrix* base, const BinScorer* scorer,
                               std::vector<uint32_t> assignments, Metric metric)
    : PartitionIndex(MatrixView(*base), scorer, std::move(assignments),
                     metric) {}

PartitionIndex::PartitionIndex(MatrixView base, const BinScorer* scorer,
                               std::vector<uint32_t> assignments, Metric metric)
    : base_(base),
      scorer_(scorer),
      dist_(base, metric),
      table_(std::move(assignments), scorer->num_bins()) {
  USP_CHECK(table_.assignments().size() == base_.rows());
}

Matrix PartitionIndex::ScoreQueries(MatrixView queries) const {
  return scorer_->ScoreBins(queries);
}

void PartitionIndex::CollectCandidates(const float* scores, size_t num_probes,
                                       std::vector<uint32_t>* candidates) const {
  std::vector<uint32_t> order;
  table_.Collect(scores, num_probes, &order, candidates);
}

BatchSearchResult PartitionIndex::SearchBatch(
    const SearchRequest& request) const {
  // Planner hook: a filtered request may reroute to an allowed-set scan or
  // post-filter before any bin scoring happens (index/query_planner.h).
  // SearchBatchWithScores below is the raw pushdown path — callers that
  // precompute scores (eval sweeps) opt out of planning by construction.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  return SearchBatchWithScores(request.queries, ScoreQueries(request.queries),
                               request.options);
}

RadiusResult PartitionIndex::RadiusSearchBatch(
    const RadiusRequest& request) const {
  const Matrix scores = ScoreQueries(request.queries);
  return RangeFilterGathered(
      request, dist_,
      [&](size_t q, std::vector<uint32_t>* order,
          std::vector<uint32_t>* candidates) {
        return table_.Collect(scores.Row(q), request.options.budget, order,
                              candidates);
      });
}

BatchSearchResult PartitionIndex::SearchBatchWithScores(
    MatrixView queries, const Matrix& scores,
    const SearchOptions& options) const {
  USP_CHECK(scores.rows() == queries.rows());
  USP_CHECK(scores.cols() == table_.num_bins());
  return RerankGathered(
      queries, options, dist_,
      [&](size_t q, std::vector<uint32_t>* order,
          std::vector<uint32_t>* candidates) {
        return table_.Collect(scores.Row(q), options.budget, order,
                              candidates);
      });
}

double KnnAccuracy(const BatchSearchResult& result,
                   const std::vector<uint32_t>& truth, size_t truth_k) {
  USP_CHECK(result.k <= truth_k);
  const size_t nq = result.candidate_counts.size();
  USP_CHECK(truth.size() >= nq * truth_k);
  size_t hits = 0;
  for (size_t q = 0; q < nq; ++q) {
    std::unordered_set<uint32_t> expected(truth.begin() + q * truth_k,
                                          truth.begin() + q * truth_k +
                                              result.k);
    const uint32_t* got = result.Row(q);
    for (size_t j = 0; j < result.k; ++j) {
      if (expected.count(got[j]) > 0) ++hits;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(nq * result.k);
}

}  // namespace usp
