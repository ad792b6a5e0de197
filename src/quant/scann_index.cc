#include "quant/scann_index.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "dist/quant_kernels.h"
#include "index/query_planner.h"
#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace usp {

ScannIndex::ScannIndex(const Matrix* base, const BinScorer* partitioner,
                       ProductQuantizer quantizer, ScannIndexConfig config,
                       Metric metric,
                       const std::vector<uint32_t>* assignments)
    : base_(*base),
      partitioner_(partitioner),
      dist_(MatrixView(*base), metric),
      quantizer_(std::move(quantizer)),
      config_(config) {
  if (metric == Metric::kCosine) {
    // Codes approximate the unit sphere: ADC dot tables against a normalized
    // query then rank by approximate cosine similarity.
    Matrix normalized = base->Clone();
    NormalizeRows(&normalized);
    owned_codes_ = quantizer_.Encode(normalized);
  } else {
    owned_codes_ = quantizer_.Encode(*base);
  }
  codes_ = owned_codes_.data();
  if (partitioner_ != nullptr) {
    table_ = BinLookupTable(assignments != nullptr
                                ? *assignments
                                : partitioner_->AssignBins(*base),
                            partitioner_->num_bins());
  }
  SetUpFastScan(nullptr);
}

ScannIndex::ScannIndex(MatrixView base, const BinScorer* partitioner,
                       ProductQuantizer quantizer, ScannIndexConfig config,
                       const uint8_t* codes,
                       const std::vector<uint32_t>& assignments, Metric metric,
                       const uint8_t* packed)
    : base_(base),
      partitioner_(partitioner),
      dist_(base, metric),
      quantizer_(std::move(quantizer)),
      config_(config),
      codes_(codes) {
  USP_CHECK(codes_ != nullptr);
  if (partitioner_ != nullptr) {
    USP_CHECK(assignments.size() == base_.rows());
    table_ = BinLookupTable(assignments, partitioner_->num_bins());
  }
  SetUpFastScan(packed);
}

void ScannIndex::SetUpFastScan(const uint8_t* packed) {
  if (config_.adc == AdcMode::kFastScan) {
    USP_CHECK(quantizer_.codebook_size() <= 16);
  }
  if (config_.adc == AdcMode::kFloat || quantizer_.codebook_size() > 16) {
    return;
  }
  const size_t m = quantizer_.num_subspaces();
  bucket_block_offsets_ =
      PackedGroupOffsets(table_.assignments(), table_.num_bins(), base_.rows());
  if (packed != nullptr) {
    packed_ = packed;  // external (mmap'd) blocks; loader validated the size
    return;
  }
  owned_packed_.assign(bucket_block_offsets_.back() * 16 * m, 0);
  if (partitioner_ == nullptr) {
    PackedCodes pc = PackCodes4(codes_, base_.rows(), m);
    owned_packed_ = std::move(pc.data);
  } else {
    const auto& buckets = table_.buckets();
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].empty()) continue;
      PackedCodes pc = PackCodes4(codes_, buckets[b], m);
      std::memcpy(owned_packed_.data() + bucket_block_offsets_[b] * 16 * m,
                  pc.data.data(), pc.data.size());
    }
  }
  packed_ = owned_packed_.data();
}

size_t ScannIndex::PackedBytes() const {
  if (packed_ == nullptr) return 0;
  return bucket_block_offsets_.back() * 16 * quantizer_.num_subspaces();
}

std::vector<float> ScannIndex::BuildMetricTable(
    const float* prepared_query) const {
  if (dist_.metric() == Metric::kSquaredL2) {
    return quantizer_.BuildAdcTable(prepared_query);
  }
  // IP/cosine minimize the negated dot-product sum; the exact rerank restores
  // the metric's true distances on the shortlist.
  std::vector<float> table = quantizer_.BuildDotTable(prepared_query);
  for (float& v : table) v = -v;
  return table;
}

BatchSearchResult ScannIndex::SearchBatch(const SearchRequest& request) const {
  // Planner hook: filtered requests may reroute away from the ADC pipeline
  // entirely (index/query_planner.h) — e.g. a sparse selector is cheaper to
  // satisfy by exact brute force over the allowed rows than by probing.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  const size_t k = options.k;
  const size_t nq = queries.rows();
  const size_t m_sub = quantizer_.num_subspaces();
  BatchSearchResult result;
  result.Prepare(nq, options);

  Matrix scores;
  if (partitioner_ != nullptr) {
    scores = partitioner_->ScoreBins(queries);
  }

  // Fast-scan engages for unfiltered requests when the packed blocks exist;
  // filtered requests prune candidates below block granularity and keep the
  // float per-code path (and its filtered bit-identity contracts).
  const bool fast_scan = packed_ != nullptr && options.filter == nullptr;
  const QuantKernels& kq = GetQuantKernels();

  ParallelFor(nq, 4, options.num_threads, [&](size_t begin, size_t end,
                                              size_t) {
    std::vector<uint32_t> candidates;
    std::vector<uint32_t> shortlist;
    std::vector<uint32_t> order;
    std::vector<uint16_t> sums;
    std::vector<float> query_scratch;
    ScoreScratch rerank_scratch;
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.Row(q);
      const float* prepared = dist_.PrepareQuery(query, &query_scratch);

      // Probed-bucket order (shared by both ADC modes).
      const size_t probes =
          partitioner_ != nullptr
              ? table_.RankProbes(scores.Row(q), options.budget, &order)
              : 0;

      TopK approx(std::max(k, config_.rerank_budget));
      size_t scored = 0, dropped = 0;
      const std::vector<float> table = BuildMetricTable(prepared);

      if (fast_scan) {
        // Quantize the per-query float table once, then score whole packed
        // buckets through the pq4 shuffle kernel.
        const QuantizedLut qlut = QuantizeAdcTable(table.data(), m_sub,
                                                   quantizer_.codebook_size());
        const auto scan_group = [&](size_t first_block, const uint32_t* ids,
                                    size_t count) {
          const size_t blocks = (count + kPq4BlockSize - 1) / kPq4BlockSize;
          sums.resize(blocks * kPq4BlockSize);
          kq.pq4_scan(packed_ + first_block * m_sub * 16, qlut.lut.data(),
                      m_sub, blocks, sums.data());
          for (size_t t = 0; t < count; ++t) {
            approx.Push(qlut.Score(sums[t]),
                        ids != nullptr ? ids[t] : static_cast<uint32_t>(t));
          }
          scored += count;
        };
        if (partitioner_ == nullptr) {
          scan_group(0, nullptr, base_.rows());
        } else {
          for (size_t p = 0; p < probes; ++p) {
            const auto& bucket = table_.buckets()[order[p]];
            if (bucket.empty()) continue;
            scan_group(bucket_block_offsets_[order[p]], bucket.data(),
                       bucket.size());
          }
        }
      } else {
        // Float path: candidate generation, selector pushdown, per-code walk.
        if (partitioner_ == nullptr) {
          candidates.resize(base_.rows());
          std::iota(candidates.begin(), candidates.end(), 0u);
        } else {
          candidates.clear();
          table_.Gather(order, probes, &candidates);
        }

        // Selector pushdown ahead of the ADC stage: disallowed rows cost no
        // table lookups and cannot crowd allowed rows out of the shortlist.
        dropped = EraseNonMembers(options.filter, &candidates);
        scored = candidates.size();
        for (uint32_t id : candidates) {
          approx.Push(quantizer_.AdcDistance(table, codes_ + id * m_sub), id);
        }
      }

      result.candidate_counts[q] = static_cast<uint32_t>(scored);
      if (result.stats) {
        result.stats->candidates_scored[q] = static_cast<uint32_t>(scored);
        result.stats->bins_probed[q] = static_cast<uint32_t>(probes);
        result.stats->filtered_out[q] = static_cast<uint32_t>(dropped);
      }

      auto top_approx = approx.TakeSorted();
      shortlist.clear();
      for (const auto& cand : top_approx) shortlist.push_back(cand.id);

      // Exact re-rank of the shortlist through the batched gather-by-id
      // kernels (already filtered in the float stage; fast-scan requests are
      // unfiltered by construction). A TopK holds each id once, so the
      // shortlist needs no dedupe.
      result.SetRow(q, RerankDistinctCandidates(dist_, query, &shortlist, k,
                                                /*filter=*/nullptr,
                                                /*counts=*/nullptr,
                                                &rerank_scratch));
    }
  });
  return result;
}

RadiusResult ScannIndex::RadiusSearchBatch(const RadiusRequest& request) const {
  Matrix scores;
  if (partitioner_ != nullptr) {
    scores = partitioner_->ScoreBins(request.queries);
  }
  return RangeFilterGathered(
      request, dist_,
      [&](size_t q, std::vector<uint32_t>* order,
          std::vector<uint32_t>* candidates) {
        if (partitioner_ != nullptr) {
          return table_.Collect(scores.Row(q), request.options.budget, order,
                                candidates);
        }
        candidates->resize(base_.rows());
        std::iota(candidates->begin(), candidates->end(), 0u);
        return size_t{0};
      });
}

}  // namespace usp
