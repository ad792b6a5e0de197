#include "ivf/ivf.h"

#include <utility>

#include "tensor/ops.h"

namespace usp {

namespace ivf_internal {

struct CoarseTraining {
  KMeansPartitioner quantizer;
  std::vector<uint32_t> assignments;
};

}  // namespace ivf_internal

namespace {

using ivf_internal::CoarseTraining;

/// The rows the IVF quantizers train on: the base, or under cosine its
/// unit-normalized copy, held in *normalized (spherical k-means, and PQ on
/// the normalized base that the ScannIndex encodes).
const Matrix& TrainingRows(const Matrix& base, Metric metric,
                           Matrix* normalized) {
  if (metric != Metric::kCosine) return base;
  *normalized = base.Clone();
  NormalizeRows(normalized);
  return *normalized;
}

/// Trains the coarse quantizer of both IVF types, keeping each metric's
/// list-residency rule.
CoarseTraining TrainCoarseQuantizer(const Matrix& base,
                                    const IvfConfig& config) {
  KMeansConfig kc;
  kc.num_clusters = config.nlist;
  kc.max_iterations = config.kmeans_iterations;
  kc.seed = config.seed;
  Matrix normalized;
  const Matrix& train = TrainingRows(base, config.metric, &normalized);
  KMeansResult km = RunKMeans(train, kc);
  KMeansPartitioner quantizer(std::move(km.centroids), config.metric);
  // Standard IVF-IP keeps k-means' L2-nearest-centroid residents while
  // queries probe lists by centroid inner product. L2 and cosine assign
  // residency with the scoring that ranks probes, so a point's home list is
  // always its query-side rank-1 list.
  std::vector<uint32_t> assignments =
      config.metric == Metric::kInnerProduct ? std::move(km.assignments)
                                             : quantizer.AssignBins(train);
  return {std::move(quantizer), std::move(assignments)};
}

ScannIndexConfig ScannConfig(const IvfConfig& config) {
  ScannIndexConfig sc;
  sc.rerank_budget = config.rerank_budget;
  sc.adc = config.adc;
  return sc;
}

/// Fails loudly rather than silently serving a malformed IVF-PQ config;
/// fallible callers (config files, loaders) run ValidateConfig first.
const IvfConfig& CheckedPqConfig(const IvfConfig& config) {
  USP_CHECK(IvfPqIndex::ValidateConfig(config).ok());
  return config;
}

ProductQuantizer TrainPq(const Matrix& base, const IvfConfig& config) {
  ProductQuantizer pq(config.pq);
  Matrix normalized;
  pq.Train(TrainingRows(base, config.metric, &normalized));
  return pq;
}

}  // namespace

IvfFlatIndex::IvfFlatIndex(const Matrix* base, const IvfConfig& config)
    : IvfFlatIndex(base, config,
                   TrainCoarseQuantizer(*base, config)) {}

IvfFlatIndex::IvfFlatIndex(const Matrix* base, const IvfConfig& config,
                           ivf_internal::CoarseTraining coarse)
    : OwnedCoarseQuantizer{config, std::move(coarse.quantizer)},
      PartitionIndex(base, &coarse_, std::move(coarse.assignments),
                     config.metric) {}

IvfFlatIndex::IvfFlatIndex(MatrixView base, const IvfConfig& config,
                           Matrix centroids, std::vector<uint32_t> assignments)
    : OwnedCoarseQuantizer{config, KMeansPartitioner::FromTrainedCentroids(
                                       std::move(centroids), config.metric)},
      PartitionIndex(base, &coarse_, std::move(assignments), config.metric) {}

Status IvfPqIndex::ValidateConfig(const IvfConfig& config) {
  if (config.nlist == 0) {
    return Status::InvalidArgument("IvfConfig::nlist must be >= 1");
  }
  if (config.pq.num_subspaces == 0) {
    return Status::InvalidArgument("PqConfig::num_subspaces must be >= 1");
  }
  if (config.pq.codebook_size == 0 || config.pq.codebook_size > 256) {
    return Status::InvalidArgument(
        "PqConfig::codebook_size must be in [1, 256] (codes are one byte)");
  }
  return Status::Ok();
}

IvfPqIndex::IvfPqIndex(const Matrix* base, const IvfConfig& config)
    : IvfPqIndex(base, config,
                 TrainCoarseQuantizer(*base, CheckedPqConfig(config))) {}

IvfPqIndex::IvfPqIndex(const Matrix* base, const IvfConfig& config,
                       ivf_internal::CoarseTraining coarse)
    : OwnedCoarseQuantizer{config, std::move(coarse.quantizer)},
      ScannIndex(base, &coarse_, TrainPq(*base, config), ScannConfig(config),
                 config.metric, &coarse.assignments) {}

IvfPqIndex::IvfPqIndex(MatrixView base, const IvfConfig& config,
                       Matrix centroids, ProductQuantizer quantizer,
                       const uint8_t* codes,
                       const std::vector<uint32_t>& assignments,
                       const uint8_t* packed)
    : OwnedCoarseQuantizer{CheckedPqConfig(config),
                           KMeansPartitioner::FromTrainedCentroids(
                               std::move(centroids), config.metric)},
      ScannIndex(base, &coarse_, std::move(quantizer), ScannConfig(config),
                 codes, assignments, config.metric, packed) {}

}  // namespace usp
