// Lloyd's K-means with k-means++ seeding. Triple duty in the paper's
// evaluation: the main quantization-partition baseline (Sec. 5.4.1), the
// coarse quantizer of IVF/FAISS-style indexes (Sec. 5.4.3), and the codebook
// trainer for product quantization (src/quant). RunMiniBatchKMeans is the
// streaming counterpart for bases that exceed RAM: same seeding, same
// kernels, per-chunk updates (serve/out_of_core_builder.h).
#ifndef USP_BASELINES_KMEANS_H_
#define USP_BASELINES_KMEANS_H_

#include <cstdint>
#include <vector>

#include "core/bin_scorer.h"
#include "dataset/fvecs_stream.h"
#include "dist/metric.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace usp {

/// K-means hyperparameters.
struct KMeansConfig {
  size_t num_clusters = 16;
  size_t max_iterations = 25;
  double tolerance = 1e-4;  ///< stop when relative inertia improvement drops below
  uint64_t seed = 1;
};

/// Result of one K-means run.
struct KMeansResult {
  Matrix centroids;                   ///< (k x d)
  std::vector<uint32_t> assignments;  ///< argmin-distance cluster per point
  double inertia = 0.0;               ///< sum of squared distances to centroids
  size_t iterations = 0;
};

/// Runs k-means++ initialization followed by Lloyd iterations. Empty clusters
/// are reseeded from the point currently farthest from its centroid.
KMeansResult RunKMeans(const Matrix& data, const KMeansConfig& config);

/// k-means++ seeding: first center uniform, then each next center sampled
/// proportional to squared distance from the nearest chosen center. Exposed
/// so the streaming trainer shares RunKMeans' exact seeding; consumes the
/// same rng draws in the same order.
Matrix KMeansPlusPlusInit(MatrixView data, size_t k, Rng* rng);

/// Streaming (mini-batch) k-means hyperparameters.
struct MiniBatchKMeansConfig {
  size_t num_clusters = 16;
  size_t epochs = 5;          ///< bounded full passes over the stream
  size_t chunk_rows = 16384;  ///< rows per assign/update step
  double tolerance = 1e-4;    ///< stop when relative epoch-inertia improvement drops below
  uint64_t seed = 1;
};

/// Result of a mini-batch run. Centroids are FromTrainedCentroids-compatible,
/// so KMeansPartitioner / IVF coarse quantizers consume them unchanged.
struct MiniBatchKMeansResult {
  Matrix centroids;    ///< (k x d)
  double inertia = 0;  ///< last epoch's streaming objective (sum sq dist)
  size_t epochs_run = 0;
};

/// Mini-batch k-means over a ChunkStream: k-means++ seeding on
/// `seeding_sample` (typically a ReservoirSample of the stream), then
/// per-chunk assign/update passes through the same block-scored kernels as
/// RunKMeans. Each chunk's points pull their centroid toward the chunk mean
/// with learning rate chunk_count / points_seen_this_epoch; per-center counts
/// reset at each epoch boundary, which makes one epoch over a single chunk
/// holding the whole dataset bit-identical to one Lloyd iteration from the
/// same seed (pinned by tests/baselines_test.cc). Memory stays
/// O(chunk_rows * d + k * d) regardless of stream length. Empty centers are
/// reseeded from the current chunk's worst-served point, mirroring RunKMeans.
StatusOr<MiniBatchKMeansResult> RunMiniBatchKMeans(
    ChunkStream* data, MatrixView seeding_sample,
    const MiniBatchKMeansConfig& config);

/// One assignment-only pass: the k-means objective of `centroids` over the
/// stream (sum of squared distances to the nearest centroid).
StatusOr<double> StreamInertia(ChunkStream* data, const Matrix& centroids,
                               size_t chunk_rows);

/// K-means as a space partition. Bin scores follow the metric: negated
/// squared distance for kSquaredL2 (argmax-score = nearest centroid, the
/// standard IVF probe order), raw dot products for kInnerProduct, and cosine
/// similarity for kCosine (centroids are unit-normalized at construction and
/// query rows are normalized inside ScoreBins).
class KMeansPartitioner : public BinScorer {
 public:
  /// Trains centroids on `data` (squared-L2 scoring).
  KMeansPartitioner(const Matrix& data, const KMeansConfig& config);

  /// Wraps existing centroids, scoring under `metric`. Cosine centroids are
  /// unit-normalized here.
  explicit KMeansPartitioner(Matrix centroids,
                             Metric metric = Metric::kSquaredL2);

  /// Wraps centroids exactly as a previous partitioner stored them (e.g.
  /// deserialized from an index container), with no preprocessing — in
  /// particular no cosine re-normalization, whose rounding would break the
  /// bit-identical save/load contract of index/serialize.h.
  static KMeansPartitioner FromTrainedCentroids(Matrix centroids,
                                                Metric metric);

  size_t num_bins() const override { return centroids_.rows(); }
  Matrix ScoreBins(MatrixView points) const override;

  const Matrix& centroids() const { return centroids_; }
  Metric metric() const { return metric_; }

  /// Learnable parameter count analogue (centroid table, Table 2).
  size_t ParameterCount() const { return centroids_.size(); }

 private:
  Matrix centroids_;
  /// RowSquaredNorms(centroids_), computed once at construction so an L2
  /// ScoreBins call does no per-centroid work beyond the dot products (and a
  /// one-query call never reaches the thread pool).
  std::vector<float> centroid_norms_;
  Metric metric_ = Metric::kSquaredL2;
};

}  // namespace usp

#endif  // USP_BASELINES_KMEANS_H_
