// The scatter-gather core both serving routers share. DynamicIndex fans a
// request out over its sealed segments and its write segment, ShardedIndex
// over its shards; each of those *parts* answers in its own local row ids
// with exact distances. This header holds what the routers have in common:
//
//   - PartSelector: the caller's filter, which speaks global ids, seen
//     through one part's local -> global id map (plus, for DynamicIndex
//     segments, the tombstone set), evaluated lazily per candidate.
//   - MergeKnnParts / MergeRadiusParts: the per-query gather. Local ids are
//     remapped to global ids, ids found in an optional drop set are discarded
//     (counted as filtered_out), and the survivors are merged on (distance,
//     global id). Candidate counts and every SearchStats counter are summed
//     across parts, so S(R) (Eq. 4) stays "exact-distance work per query"
//     through the fan-out.
//   - RunSegmentBuilder: trains one part with a caller's SegmentBuilder or
//     the IVF-Flat default with nlist ~ sqrt(n).
//
// Scheduling stays with the routers: shards search in parallel on slices of
// the thread cap, segments in order at the caller's cap.
#ifndef USP_SERVE_FAN_OUT_H_
#define USP_SERVE_FAN_OUT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "dist/metric.h"
#include "index/index.h"
#include "tensor/matrix.h"

namespace usp {

/// Trains an immutable segment (or static shard) index over `base`, which
/// the router keeps alive next to the returned index. The result must view
/// `base`, index all of its rows, and report `metric`.
using SegmentBuilder =
    std::function<std::unique_ptr<Index>(const Matrix& base, Metric metric)>;

/// Runs `builder` over `base` — or, when it is empty, builds IVF-Flat with
/// nlist = round(sqrt(n)) — and checks the SegmentBuilder contract. Routers
/// do not nest, so the result may not be a DynamicIndex or a ShardedIndex.
std::unique_ptr<Index> RunSegmentBuilder(const SegmentBuilder& builder,
                                         const Matrix& base, Metric metric);

/// One part's view of a selector over global ids: local row i is a member
/// iff its global id passes `global` and is not in `tombstones` (optional).
/// Membership is evaluated per candidate the part actually visits, never by
/// an eager O(part) translation; the maps are read under the router's lock,
/// which the search holds for the whole fan-out.
class PartSelector final : public IdSelector {
 public:
  PartSelector(const IdSelector* global,
               const std::vector<uint32_t>& local_to_global,
               const std::unordered_set<uint32_t>* tombstones = nullptr)
      : global_(global),
        local_to_global_(local_to_global),
        tombstones_(tombstones) {}

  bool is_member(uint32_t local) const override {
    const uint32_t gid = local_to_global_[local];
    return global_->is_member(gid) &&
           (tombstones_ == nullptr || tombstones_->count(gid) == 0);
  }

 private:
  const IdSelector* global_;
  const std::vector<uint32_t>& local_to_global_;
  const std::unordered_set<uint32_t>* tombstones_;
};

/// One part's answer to a fanned-out request, in local row ids, with the map
/// that turns them into global ids.
template <typename Result>
struct PartResult {
  Result hits;
  const std::vector<uint32_t>* local_to_global;
};

/// Per-query k-NN gather into `result`, already Prepared for the batch:
/// every part's row (up to its padding) is remapped, ids in `drop` are
/// discarded and counted as filtered_out, and the rest feed a TopK on
/// (distance, global id). Parts are pushed in order. Queries are sharded
/// under `num_threads`.
void MergeKnnParts(const std::vector<PartResult<BatchSearchResult>>& parts,
                   const std::unordered_set<uint32_t>* drop,
                   size_t num_threads, BatchSearchResult* result);

/// Per-query radius gather: remap, discard ids in `drop` (counted as
/// filtered_out), and sort the concatenated rows by (distance, global id).
/// Parts hold disjoint global ids, so no dedupe is needed.
RadiusResult MergeRadiusParts(size_t num_queries,
                              const std::vector<PartResult<RadiusResult>>& parts,
                              const std::unordered_set<uint32_t>* drop,
                              const RadiusOptions& options);

}  // namespace usp

#endif  // USP_SERVE_FAN_OUT_H_
