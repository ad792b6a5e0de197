#include "serve/fan_out.h"

#include <algorithm>
#include <cmath>

#include "ivf/ivf.h"
#include "knn/top_k.h"
#include "util/thread_pool.h"

namespace usp {

std::unique_ptr<Index> RunSegmentBuilder(const SegmentBuilder& builder,
                                         const Matrix& base, Metric metric) {
  std::unique_ptr<Index> index;
  if (builder) {
    index = builder(base, metric);
  } else {
    IvfConfig ivf;
    ivf.metric = metric;
    const size_t n = base.rows();
    ivf.nlist = std::max<size_t>(
        1, std::min(n, static_cast<size_t>(
                           std::lround(std::sqrt(static_cast<double>(n))))));
    index = std::make_unique<IvfFlatIndex>(&base, ivf);
  }
  USP_CHECK(index != nullptr);
  USP_CHECK(index->dim() == base.cols());
  USP_CHECK(index->metric() == metric);
  USP_CHECK(index->size() == base.rows());
  USP_CHECK(index->type() != IndexType::kDynamic &&
            index->type() != IndexType::kSharded);
  return index;
}

namespace {
/// One query's counters summed across parts.
struct QueryTally {
  uint32_t candidates = 0;
  uint32_t bins = 0;
  uint32_t filtered = 0;
  uint32_t visited = 0;

  template <typename Result>
  void Add(const Result& part, size_t q) {
    candidates += part.candidate_counts[q];
    if (!part.stats) return;
    bins += part.stats->bins_probed[q];
    filtered += part.stats->filtered_out[q];
    visited += part.stats->nodes_visited[q];
  }

  template <typename Result>
  void Store(size_t q, Result* out) const {
    out->candidate_counts[q] = candidates;
    if (!out->stats) return;
    out->stats->candidates_scored[q] = candidates;
    out->stats->bins_probed[q] = bins;
    out->stats->filtered_out[q] = filtered;
    out->stats->nodes_visited[q] = visited;
  }
};

bool Dropped(const std::unordered_set<uint32_t>* drop, uint32_t gid) {
  return drop != nullptr && drop->count(gid) > 0;
}
}  // namespace

void MergeKnnParts(const std::vector<PartResult<BatchSearchResult>>& parts,
                   const std::unordered_set<uint32_t>* drop,
                   size_t num_threads, BatchSearchResult* result) {
  const size_t nq = result->candidate_counts.size();
  ParallelFor(nq, 8, num_threads, [&](size_t begin, size_t end, size_t) {
    for (size_t q = begin; q < end; ++q) {
      TopK heap(result->k);
      QueryTally tally;
      for (const PartResult<BatchSearchResult>& part : parts) {
        const BatchSearchResult& batch = part.hits;
        tally.Add(batch, q);
        const uint32_t* ids = batch.Row(q);
        const float* dists = batch.DistanceRow(q);
        for (size_t j = 0; j < batch.k; ++j) {
          if (ids[j] == kInvalidId) break;  // padding: no more hits
          const uint32_t gid = (*part.local_to_global)[ids[j]];
          if (Dropped(drop, gid)) {
            ++tally.filtered;
            continue;
          }
          heap.Push(dists[j], gid);
        }
      }
      result->SetRow(q, heap.TakeSorted());
      tally.Store(q, result);
    }
  });
}

RadiusResult MergeRadiusParts(size_t num_queries,
                              const std::vector<PartResult<RadiusResult>>& parts,
                              const std::unordered_set<uint32_t>* drop,
                              const RadiusOptions& options) {
  return CollectRadiusRows(num_queries, options, [&](size_t q,
                                                     RadiusResult* out) {
    std::vector<Neighbor> merged;
    QueryTally tally;
    for (const PartResult<RadiusResult>& part : parts) {
      const RadiusResult& rows = part.hits;
      tally.Add(rows, q);
      for (size_t j = rows.offsets[q]; j < rows.offsets[q + 1]; ++j) {
        const uint32_t gid = (*part.local_to_global)[rows.ids[j]];
        if (Dropped(drop, gid)) {
          ++tally.filtered;
          continue;
        }
        merged.push_back(Neighbor{rows.distances[j], gid});
      }
    }
    std::sort(merged.begin(), merged.end());
    tally.Store(q, out);
    return merged;
  });
}

}  // namespace usp
