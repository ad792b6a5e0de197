#include "core/bin_lookup.h"

#include <algorithm>
#include <numeric>

#include "knn/brute_force.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace usp {

BinLookupTable::BinLookupTable(std::vector<uint32_t> assignments,
                               size_t num_bins)
    : assignments_(std::move(assignments)), buckets_(num_bins) {
  for (size_t i = 0; i < assignments_.size(); ++i) {
    USP_CHECK(assignments_[i] < buckets_.size());
    buckets_[assignments_[i]].push_back(static_cast<uint32_t>(i));
  }
}

size_t BinLookupTable::RankProbes(const float* scores, size_t budget,
                                  std::vector<uint32_t>* order) const {
  const size_t probes = std::min(budget, buckets_.size());
  order->resize(buckets_.size());
  std::iota(order->begin(), order->end(), 0u);
  std::partial_sort(order->begin(), order->begin() + probes, order->end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  return probes;
}

void BinLookupTable::Gather(const std::vector<uint32_t>& order, size_t probes,
                            std::vector<uint32_t>* candidates) const {
  for (size_t p = 0; p < probes; ++p) {
    const auto& bucket = buckets_[order[p]];
    candidates->insert(candidates->end(), bucket.begin(), bucket.end());
  }
}

size_t BinLookupTable::Collect(const float* scores, size_t budget,
                               std::vector<uint32_t>* order,
                               std::vector<uint32_t>* candidates) const {
  const size_t probes = RankProbes(scores, budget, order);
  candidates->clear();
  Gather(*order, probes, candidates);
  return probes;
}

size_t BinLookupTable::EstimateCandidates(size_t budget) const {
  const size_t n = assignments_.size();
  if (buckets_.empty()) return n;
  const size_t probes = std::min(std::max<size_t>(budget, 1), buckets_.size());
  return (n * probes + buckets_.size() - 1) / buckets_.size();
}

BatchSearchResult RerankGathered(MatrixView queries,
                                 const SearchOptions& options,
                                 const DistanceComputer& dist,
                                 const CandidateGather& gather) {
  const size_t nq = queries.rows();
  BatchSearchResult result;
  result.Prepare(nq, options);
  ParallelFor(nq, 8, options.num_threads, [&](size_t begin, size_t end,
                                              size_t) {
    std::vector<uint32_t> order, candidates;
    ScoreScratch scratch;
    for (size_t q = begin; q < end; ++q) {
      const size_t probes = gather(q, &order, &candidates);
      RerankCounts counts;
      result.SetRow(q, RerankDistinctCandidates(dist, queries.Row(q),
                                                &candidates, options.k,
                                                options.filter, &counts,
                                                &scratch));
      // Gathered ids are distinct, so scored counts the candidates the
      // selector kept: |C(q)| for disjoint bins and no filter.
      result.candidate_counts[q] = counts.scored;
      if (result.stats) {
        result.stats->candidates_scored[q] = counts.scored;
        result.stats->bins_probed[q] = static_cast<uint32_t>(probes);
        result.stats->filtered_out[q] = counts.filtered_out;
      }
    }
  });
  return result;
}

RadiusResult RangeFilterGathered(const RadiusRequest& request,
                                 const DistanceComputer& dist,
                                 const CandidateGather& gather) {
  return CollectRadiusChunks(
      request.queries.rows(), request.options,
      [&](size_t begin, size_t end, RadiusResult* result,
          std::vector<Neighbor>* rows) {
        std::vector<uint32_t> order, candidates;
        ScoreScratch scratch;
        for (size_t q = begin; q < end; ++q) {
          const size_t probes = gather(q, &order, &candidates);
          RadiusRowCounts counts;
          rows[q] = RangeFilterDistinctCandidates(
              dist, request.queries.Row(q), &candidates, request.radius,
              request.options.filter, &counts, &scratch);
          result->candidate_counts[q] = counts.scored;
          if (result->stats) {
            result->stats->candidates_scored[q] = counts.scored;
            result->stats->bins_probed[q] = static_cast<uint32_t>(probes);
            result->stats->filtered_out[q] = counts.filtered_out;
          }
        }
      });
}

}  // namespace usp
