// The bin lookup table of Alg. 1 step 3 and the rest of Alg. 2 around it:
// every bin's member ids, the ranking of bins by a query's scores, the
// gather of the probed bins' points into a candidate set, and the exact
// rerank / range filter of that set. PartitionIndex (and IvfFlatIndex
// through it), ScannIndex (and IvfPqIndex) and UspEnsemble all run on these,
// so probe order, candidate volume and per-query counters are defined once.
#ifndef USP_CORE_BIN_LOOKUP_H_
#define USP_CORE_BIN_LOOKUP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dist/distance_computer.h"
#include "index/index.h"
#include "workload/radius.h"

namespace usp {

/// Immutable bin -> member-ids table. A default-constructed table has no bins
/// (a partition-free index).
class BinLookupTable {
 public:
  BinLookupTable() = default;

  /// Groups point i into bin assignments[i] (< num_bins), members of a bin
  /// in ascending id order.
  BinLookupTable(std::vector<uint32_t> assignments, size_t num_bins);

  size_t num_bins() const { return buckets_.size(); }
  /// Residency bin of every point (empty when the table has no bins).
  const std::vector<uint32_t>& assignments() const { return assignments_; }
  const std::vector<std::vector<uint32_t>>& buckets() const { return buckets_; }

  /// Ranks bins by descending score (ties by ascending bin id) and leaves the
  /// best min(budget, num_bins()) in order[0, probes); returns probes.
  /// `order` is caller-owned scratch, reusable across queries.
  size_t RankProbes(const float* scores, size_t budget,
                    std::vector<uint32_t>* order) const;

  /// Appends the members of bins order[0, probes) to *candidates, in probe
  /// order. Each point sits in one bin, so the appended ids are distinct.
  void Gather(const std::vector<uint32_t>& order, size_t probes,
              std::vector<uint32_t>* candidates) const;

  /// RankProbes into the `order` scratch, then replaces *candidates with the
  /// probed bins' members; returns the bins probed.
  size_t Collect(const float* scores, size_t budget,
                 std::vector<uint32_t>* order,
                 std::vector<uint32_t>* candidates) const;

  /// Planner cost input (index/query_planner.h): the balanced-bin candidate
  /// volume ceil(n * min(max(budget, 1), bins) / bins); n without bins.
  size_t EstimateCandidates(size_t budget) const;

 private:
  std::vector<uint32_t> assignments_;
  std::vector<std::vector<uint32_t>> buckets_;  ///< the paper's lookup table
};

/// Candidate generation for query q: replaces *candidates with distinct ids
/// and returns the number of bins probed. `order` is probe-ranking scratch.
/// The stages below score the ids as given, without a dedupe: a gather
/// whose sources overlap (the ensemble union) dedupes itself.
using CandidateGather = std::function<size_t(
    size_t q, std::vector<uint32_t>* order, std::vector<uint32_t>* candidates)>;

/// k-NN over gathered candidates: every query's set is exact-reranked under
/// `options` (k, filter pushdown, stats), sharded over the pool under
/// options.num_threads, with the id, order and score buffers reused across
/// the queries of a chunk. Each query writes only its own rows, so results
/// are bit-identical at every thread count.
BatchSearchResult RerankGathered(MatrixView queries,
                                 const SearchOptions& options,
                                 const DistanceComputer& dist,
                                 const CandidateGather& gather);

/// Radius search over gathered candidates, range-filtered by exact distance
/// (workload/radius.h). A gather covering the allowed base makes the result
/// bit-identical to BruteForceRadius.
RadiusResult RangeFilterGathered(const RadiusRequest& request,
                                 const DistanceComputer& dist,
                                 const CandidateGather& gather);

}  // namespace usp

#endif  // USP_CORE_BIN_LOOKUP_H_
