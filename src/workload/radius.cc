#include "workload/radius.h"

#include <algorithm>

#include "index/index.h"  // SearchStats
#include "util/thread_pool.h"

namespace usp {

std::vector<Neighbor> RangeFilterDistinctCandidates(
    const DistanceComputer& dist, const float* query,
    std::vector<uint32_t>* candidates, float radius, const IdSelector* filter,
    RadiusRowCounts* counts, ScoreScratch* scratch) {
  std::vector<uint32_t>& ids = *candidates;
  const uint32_t dropped = EraseNonMembers(filter, &ids);
  if (counts != nullptr) {
    counts->scored = static_cast<uint32_t>(ids.size());
    counts->filtered_out = dropped;
  }

  const float* prepared = dist.PrepareQuery(query, &scratch->query);
  scratch->scores.resize(ids.size());
  dist.ScoreIds(prepared, ids.data(), ids.size(), scratch->scores.data());

  std::vector<Neighbor> hits;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (scratch->scores[i] <= radius) {
      hits.push_back(Neighbor{scratch->scores[i], ids[i]});
    }
  }
  std::sort(hits.begin(), hits.end());  // (distance, id) total order
  return hits;
}

RadiusResult CollectRadiusRows(
    size_t num_queries, const RadiusOptions& options,
    const std::function<std::vector<Neighbor>(size_t, RadiusResult*)>&
        row_fn) {
  return CollectRadiusChunks(
      num_queries, options,
      [&](size_t begin, size_t end, RadiusResult* result,
          std::vector<Neighbor>* rows) {
        for (size_t q = begin; q < end; ++q) rows[q] = row_fn(q, result);
      });
}

RadiusResult CollectRadiusChunks(
    size_t num_queries, const RadiusOptions& options,
    const std::function<void(size_t, size_t, RadiusResult*,
                             std::vector<Neighbor>*)>& chunk_fn) {
  RadiusResult result;
  result.offsets.assign(num_queries + 1, 0);
  result.candidate_counts.assign(num_queries, 0);
  if (options.stats) {
    result.stats.emplace();
    result.stats->Allocate(num_queries);
  }

  std::vector<std::vector<Neighbor>> rows(num_queries);
  ParallelFor(num_queries, 8, options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
                chunk_fn(q_begin, q_end, &result, rows.data());
              });

  size_t total = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    result.offsets[q] = total;
    total += rows[q].size();
  }
  result.offsets[num_queries] = total;
  result.ids.reserve(total);
  result.distances.reserve(total);
  for (const auto& row : rows) {
    for (const Neighbor& n : row) {
      result.ids.push_back(n.id);
      result.distances.push_back(n.distance);
    }
  }
  return result;
}

}  // namespace usp
