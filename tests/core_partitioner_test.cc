// Tests for the USP training loop, partition index (Alg. 2), ensembling
// (Alg. 3-4) and hierarchical partitioning on small synthetic workloads:
// training must converge to balanced partitions, indexes must beat random
// probing, ensembles must not regress single models, trees must score like
// flattened products.
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "core/hierarchical.h"
#include "core/partition_index.h"
#include "core/partitioner.h"
#include "dataset/workload.h"
#include "index/id_selector.h"
#include "knn/brute_force.h"

namespace usp {
namespace {

// Shared small workload (cached across tests; construction is the slow part).
const Workload& SmallWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 1200;
    spec.num_queries = 80;
    spec.gt_k = 10;
    spec.knn_k = 10;
    spec.seed = 5;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

UspTrainConfig FastConfig(size_t bins) {
  UspTrainConfig config;
  config.num_bins = bins;
  config.eta = 8.0f;
  config.epochs = 16;
  config.batch_size = 256;
  config.hidden_dim = 32;
  config.seed = 3;
  return config;
}

TEST(UspPartitionerTest, TrainingReducesLoss) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(8));
  partitioner.Train(w.base, w.knn_matrix);
  const auto& stats = partitioner.epoch_stats();
  ASSERT_GE(stats.size(), 4u);
  EXPECT_LT(stats.back().loss.total, stats.front().loss.total);
}

TEST(UspPartitionerTest, ProducesRoughlyBalancedPartition) {
  const Workload& w = SmallWorkload();
  // The paper tunes eta to "the lowest value resulting in a balanced
  // partition" (Sec. 5.1.4); this config mirrors that: higher eta + enough
  // epochs for dead bins to recover.
  UspTrainConfig config = FastConfig(8);
  config.eta = 12.0f;
  config.epochs = 24;
  UspPartitioner partitioner(config);
  partitioner.Train(w.base, w.knn_matrix);
  const auto bins = partitioner.AssignBins(w.base);
  EXPECT_LT(BalanceRatio(bins, 8), 2.2);
  // Every bin is used.
  const auto histogram = BinHistogram(bins, 8);
  for (size_t count : histogram) EXPECT_GT(count, 0u);
}

TEST(UspPartitionerTest, ScoresAreProbabilities) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(4));
  partitioner.Train(w.base, w.knn_matrix);
  const Matrix scores = partitioner.ScoreBins(w.queries);
  ASSERT_EQ(scores.cols(), 4u);
  for (size_t i = 0; i < scores.rows(); ++i) {
    float sum = 0.0f;
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_GE(scores(i, j), 0.0f);
      sum += scores(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(UspPartitionerTest, NeighborsMostlyShareBins) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(8));
  partitioner.Train(w.base, w.knn_matrix);
  const auto bins = partitioner.AssignBins(w.base);
  size_t colocated = 0, total = 0;
  for (size_t i = 0; i < w.base.rows(); ++i) {
    const uint32_t* nbrs = w.knn_matrix.Row(i);
    for (size_t t = 0; t < w.knn_matrix.k; ++t) {
      if (bins[nbrs[t]] == bins[i]) ++colocated;
      ++total;
    }
  }
  // The quality loss optimizes exactly this; random would be 1/8.
  EXPECT_GT(static_cast<double>(colocated) / total, 0.6);
}

TEST(UspPartitionerTest, LogisticModelTrains) {
  const Workload& w = SmallWorkload();
  UspTrainConfig config = FastConfig(2);
  config.model = UspModelKind::kLogisticRegression;
  UspPartitioner partitioner(config);
  partitioner.Train(w.base, w.knn_matrix);
  EXPECT_EQ(partitioner.ParameterCount(), w.base.cols() * 2 + 2);
  const auto bins = partitioner.AssignBins(w.base);
  EXPECT_LT(BalanceRatio(bins, 2), 1.7);
}

TEST(UspPartitionerTest, SoftTargetsAlsoConverge) {
  const Workload& w = SmallWorkload();
  UspTrainConfig config = FastConfig(4);
  config.soft_targets = true;
  UspPartitioner partitioner(config);
  partitioner.Train(w.base, w.knn_matrix);
  const auto& stats = partitioner.epoch_stats();
  EXPECT_LT(stats.back().loss.total, stats.front().loss.total);
}

TEST(UspPartitionerTest, DeterministicForSameSeed) {
  const Workload& w = SmallWorkload();
  UspPartitioner a(FastConfig(4)), b(FastConfig(4));
  a.Train(w.base, w.knn_matrix);
  b.Train(w.base, w.knn_matrix);
  EXPECT_EQ(a.AssignBins(w.base), b.AssignBins(w.base));
}

TEST(PartitionIndexTest, BucketsPartitionTheDataset) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(8));
  partitioner.Train(w.base, w.knn_matrix);
  PartitionIndex index(&w.base, &partitioner);
  size_t total = 0;
  std::vector<uint8_t> seen(w.base.rows(), 0);
  for (const auto& bucket : index.buckets()) {
    for (uint32_t id : bucket) {
      EXPECT_LT(id, w.base.rows());
      EXPECT_EQ(seen[id], 0) << "point in two buckets";
      seen[id] = 1;
      ++total;
    }
  }
  EXPECT_EQ(total, w.base.rows());
}

TEST(PartitionIndexTest, MoreProbesMonotonicallyImproveAccuracy) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(8));
  partitioner.Train(w.base, w.knn_matrix);
  PartitionIndex index(&w.base, &partitioner);
  double prev_accuracy = -1.0, prev_candidates = -1.0;
  for (size_t probes : {1, 2, 4, 8}) {
    const auto result = index.SearchBatch(w.queries, 10, probes);
    const double accuracy =
        KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k);
    EXPECT_GE(accuracy, prev_accuracy);
    EXPECT_GT(result.MeanCandidates(), prev_candidates);
    prev_accuracy = accuracy;
    prev_candidates = result.MeanCandidates();
  }
  EXPECT_GT(prev_accuracy, 0.95);  // all bins probed ~ exhaustive
}

TEST(PartitionIndexTest, AllBinsProbedIsExact) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(4));
  partitioner.Train(w.base, w.knn_matrix);
  PartitionIndex index(&w.base, &partitioner);
  const auto result = index.SearchBatch(w.queries, 10, 4);
  EXPECT_DOUBLE_EQ(
      KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k), 1.0);
  // Candidate set = whole dataset.
  EXPECT_DOUBLE_EQ(result.MeanCandidates(),
                   static_cast<double>(w.base.rows()));
}

TEST(PartitionIndexTest, CandidateCountsMatchBucketSizes) {
  const Workload& w = SmallWorkload();
  UspPartitioner partitioner(FastConfig(8));
  partitioner.Train(w.base, w.knn_matrix);
  PartitionIndex index(&w.base, &partitioner);
  const Matrix scores = index.ScoreQueries(w.queries);
  std::vector<uint32_t> candidates;
  for (size_t q = 0; q < 5; ++q) {
    index.CollectCandidates(scores.Row(q), 2, &candidates);
    // Recompute expected: sizes of the two best-scored buckets.
    std::vector<uint32_t> order(8);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return scores(q, a) > scores(q, b);
    });
    const size_t expected = index.buckets()[order[0]].size() +
                            index.buckets()[order[1]].size();
    EXPECT_EQ(candidates.size(), expected);
  }
}

TEST(KnnAccuracyTest, PerfectAndZeroCases) {
  BatchSearchResult result;
  result.k = 2;
  result.ids = {0, 1, 2, 3};
  result.candidate_counts = {2, 2};
  const std::vector<uint32_t> truth_match = {0, 1, 9, 9, 2, 3, 9, 9};
  EXPECT_DOUBLE_EQ(KnnAccuracy(result, truth_match, 4), 1.0);
  const std::vector<uint32_t> truth_miss = {7, 8, 9, 9, 7, 8, 9, 9};
  EXPECT_DOUBLE_EQ(KnnAccuracy(result, truth_miss, 4), 0.0);
}

TEST(EnsembleTest, TrainsRequestedModels) {
  const Workload& w = SmallWorkload();
  UspEnsembleConfig config;
  config.model = FastConfig(8);
  config.num_models = 3;
  UspEnsemble ensemble(config);
  ensemble.Train(w.base, w.knn_matrix);
  EXPECT_EQ(ensemble.num_models(), 3u);
  EXPECT_EQ(ensemble.ParameterCount(), 3 * ensemble.model(0).ParameterCount());
}

TEST(EnsembleTest, WeightsChangeAcrossStages) {
  const Workload& w = SmallWorkload();
  UspEnsembleConfig config;
  config.model = FastConfig(8);
  config.num_models = 2;
  UspEnsemble ensemble(config);
  ensemble.Train(w.base, w.knn_matrix);
  const auto& weights = ensemble.final_weights();
  ASSERT_EQ(weights.size(), w.base.rows());
  // Mean-normalized to ~1, but not all equal (some points are harder).
  double mean = std::accumulate(weights.begin(), weights.end(), 0.0) /
                weights.size();
  EXPECT_NEAR(mean, 1.0, 0.05);
  const auto [mn, mx] = std::minmax_element(weights.begin(), weights.end());
  EXPECT_GT(*mx - *mn, 1e-3f);
}

TEST(EnsembleTest, AtLeastAsAccurateAsFirstModel) {
  const Workload& w = SmallWorkload();
  UspEnsembleConfig config;
  config.model = FastConfig(8);
  config.num_models = 3;
  UspEnsemble ensemble(config);
  ensemble.Train(w.base, w.knn_matrix);

  const auto ensemble_result = ensemble.SearchBatch(w.queries, 10, 1);
  const double ensemble_accuracy =
      KnnAccuracy(ensemble_result, w.ground_truth.indices, w.ground_truth.k);

  PartitionIndex first(&w.base, &ensemble.model(0));
  const auto single_result = first.SearchBatch(w.queries, 10, 1);
  const double single_accuracy =
      KnnAccuracy(single_result, w.ground_truth.indices, w.ground_truth.k);

  EXPECT_GE(ensemble_accuracy, single_accuracy - 0.02);
}

TEST(EnsembleTest, UnionCombineGathersMoreCandidates) {
  const Workload& w = SmallWorkload();
  UspEnsembleConfig config;
  config.model = FastConfig(8);
  config.num_models = 2;
  config.combine = EnsembleCombine::kUnion;
  UspEnsemble union_ensemble(config);
  union_ensemble.Train(w.base, w.knn_matrix);
  config.combine = EnsembleCombine::kBestConfidence;
  UspEnsemble best_ensemble(config);
  best_ensemble.Train(w.base, w.knn_matrix);

  const auto union_result = union_ensemble.SearchBatch(w.queries, 10, 1);
  const auto best_result = best_ensemble.SearchBatch(w.queries, 10, 1);
  EXPECT_GE(union_result.MeanCandidates(), best_result.MeanCandidates());
}

// The union combine is the one gather whose sources overlap: several members
// probe bins holding the same point. It dedupes its own union, and the rerank
// and range filter after it score the gathered ids as given. These tests pin
// that no id repeats in a row, that candidate_counts is the distinct union
// count (minus selector-rejected ids), and that a full-budget union is
// bit-identical to brute force, for k-NN and radius, with and without a
// filter.
class EnsembleUnionTest : public ::testing::Test {
 protected:
  static constexpr size_t kBins = 8;

  static const UspEnsemble& Union() {
    static const UspEnsemble* ensemble = [] {
      UspEnsembleConfig config;
      config.model = FastConfig(kBins);
      config.num_models = 3;
      config.combine = EnsembleCombine::kUnion;
      auto* e = new UspEnsemble(config);
      e->Train(SmallWorkload().base, SmallWorkload().knn_matrix);
      return e;
    }();
    return *ensemble;
  }

  // Every id not divisible by 3.
  static const IdSelectorArray& Filter() {
    static const IdSelectorArray* filter = [] {
      std::vector<uint32_t> ids;
      for (uint32_t i = 0; i < SmallWorkload().base.rows(); ++i) {
        if (i % 3 != 0) ids.push_back(i);
      }
      return new IdSelectorArray(std::move(ids));
    }();
    return *filter;
  }

  // Per query: the distinct union of the members' probed bins, gathered
  // outside the ensemble. *gathered receives the union's size with repeats.
  static std::vector<std::vector<uint32_t>> DistinctUnion(size_t budget,
                                                          size_t* gathered) {
    const Workload& w = SmallWorkload();
    const UspEnsemble& e = Union();
    std::vector<std::vector<uint32_t>> rows(w.queries.rows());
    *gathered = 0;
    std::vector<uint32_t> member_ids;
    for (size_t j = 0; j < e.num_models(); ++j) {
      const PartitionIndex member(&w.base, &e.model(j));
      const Matrix scores = e.model(j).ScoreBins(w.queries);
      for (size_t q = 0; q < rows.size(); ++q) {
        member.CollectCandidates(scores.Row(q), budget, &member_ids);
        *gathered += member_ids.size();
        rows[q].insert(rows[q].end(), member_ids.begin(), member_ids.end());
      }
    }
    for (auto& row : rows) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
    return rows;
  }

  static uint32_t CountAllowed(const std::vector<uint32_t>& ids,
                               const IdSelector* filter) {
    if (filter == nullptr) return static_cast<uint32_t>(ids.size());
    return static_cast<uint32_t>(
        std::count_if(ids.begin(), ids.end(),
                      [&](uint32_t id) { return filter->is_member(id); }));
  }

  static void ExpectDistinct(const uint32_t* ids, size_t count) {
    std::vector<uint32_t> row;
    for (size_t i = 0; i < count; ++i) {
      if (ids[i] != kInvalidId) row.push_back(ids[i]);
    }
    std::sort(row.begin(), row.end());
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end()) == row.end());
  }
};

TEST_F(EnsembleUnionTest, KnnCountsDistinctCandidatesAndMatchesBruteForce) {
  const Workload& w = SmallWorkload();
  const UspEnsemble& e = Union();
  const IdSelectorAll all;
  for (const IdSelector* filter : {static_cast<const IdSelector*>(nullptr),
                                   static_cast<const IdSelector*>(&Filter())}) {
    for (size_t budget : {size_t{1}, size_t{3}, kBins}) {
      SCOPED_TRACE(testing::Message() << "budget " << budget << " filtered "
                                      << (filter != nullptr));
      size_t gathered = 0;
      const auto expected = DistinctUnion(budget, &gathered);
      size_t distinct = 0;
      for (const auto& row : expected) distinct += row.size();
      EXPECT_GT(gathered, distinct) << "members' bins should overlap";

      SearchOptions options;
      options.k = 10;
      options.budget = budget;
      options.num_threads = 1;
      options.filter = filter;
      options.stats = true;
      options.plan = PlanMode::kForcePushdown;
      const BatchSearchResult result = e.SearchBatch({w.queries, options});
      ASSERT_TRUE(result.stats.has_value());
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        ExpectDistinct(result.Row(q), result.k);
        const uint32_t allowed = CountAllowed(expected[q], filter);
        EXPECT_EQ(result.candidate_counts[q], allowed);
        EXPECT_EQ(result.stats->candidates_scored[q], allowed);
        EXPECT_EQ(result.stats->filtered_out[q],
                  expected[q].size() - allowed);
      }
      if (budget == kBins) {
        const KnnResult truth =
            BruteForceKnn(w.base, w.queries, options.k, Metric::kSquaredL2,
                          filter != nullptr ? filter : &all);
        EXPECT_EQ(result.ids, truth.indices);
        EXPECT_EQ(result.distances, truth.distances);
      }
    }
  }
}

TEST_F(EnsembleUnionTest, RadiusCountsDistinctCandidatesAndMatchesBruteForce) {
  const Workload& w = SmallWorkload();
  const UspEnsemble& e = Union();
  // About the median 10th-neighbor distance: rows of a few to tens of hits.
  const KnnResult knn = BruteForceKnn(w.base, w.queries, 10);
  std::vector<float> tenth;
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    tenth.push_back(knn.distances[q * knn.k + 9]);
  }
  std::nth_element(tenth.begin(), tenth.begin() + tenth.size() / 2,
                   tenth.end());
  const float radius = tenth[tenth.size() / 2];

  for (const IdSelector* filter : {static_cast<const IdSelector*>(nullptr),
                                   static_cast<const IdSelector*>(&Filter())}) {
    for (size_t budget : {size_t{1}, size_t{3}, kBins}) {
      SCOPED_TRACE(testing::Message() << "budget " << budget << " filtered "
                                      << (filter != nullptr));
      size_t gathered = 0;
      const auto expected = DistinctUnion(budget, &gathered);

      RadiusRequest request;
      request.queries = w.queries;
      request.radius = radius;
      request.options.budget = budget;
      request.options.num_threads = 1;
      request.options.filter = filter;
      request.options.stats = true;
      const RadiusResult result = e.RadiusSearchBatch(request);
      ASSERT_TRUE(result.stats.has_value());
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        ExpectDistinct(result.RowIds(q), result.RowSize(q));
        const uint32_t allowed = CountAllowed(expected[q], filter);
        EXPECT_EQ(result.candidate_counts[q], allowed);
        EXPECT_EQ(result.stats->candidates_scored[q], allowed);
        EXPECT_EQ(result.stats->filtered_out[q],
                  expected[q].size() - allowed);
      }
      if (budget == kBins) {
        RadiusOptions exact;
        exact.filter = filter;
        const RadiusResult truth = BruteForceRadius(
            w.base, w.queries, radius, Metric::kSquaredL2, exact);
        EXPECT_EQ(result.offsets, truth.offsets);
        EXPECT_EQ(result.ids, truth.ids);
        EXPECT_EQ(result.distances, truth.distances);
      }
    }
  }
}

TEST(HierarchicalTest, TotalBinsIsFanoutProduct) {
  HierarchicalConfig config;
  config.fanouts = {4, 4};
  config.model = FastConfig(4);
  HierarchicalUspPartitioner tree(config);
  EXPECT_EQ(tree.num_bins(), 16u);
}

TEST(HierarchicalTest, ScoresAreDistributions) {
  const Workload& w = SmallWorkload();
  HierarchicalConfig config;
  config.fanouts = {4, 4};
  config.model = FastConfig(4);
  config.model.epochs = 6;
  HierarchicalUspPartitioner tree(config);
  tree.Train(w.base, w.knn_matrix);
  const Matrix scores = tree.ScoreBins(w.queries);
  ASSERT_EQ(scores.cols(), 16u);
  for (size_t i = 0; i < scores.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 16; ++j) {
      EXPECT_GE(scores(i, j), 0.0f);
      sum += scores(i, j);
    }
    // Product of per-level distributions sums to 1 over leaves.
    EXPECT_NEAR(sum, 1.0, 1e-3);
  }
}

TEST(HierarchicalTest, IndexableAndReasonablyAccurate) {
  const Workload& w = SmallWorkload();
  HierarchicalConfig config;
  config.fanouts = {4, 4};
  config.model = FastConfig(4);
  config.model.epochs = 8;
  HierarchicalUspPartitioner tree(config);
  tree.Train(w.base, w.knn_matrix);
  PartitionIndex index(&w.base, &tree);
  const auto result = index.SearchBatch(w.queries, 10, 4);
  const double accuracy =
      KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k);
  EXPECT_GT(accuracy, 0.5);
  // Probing 4/16 bins must not scan the whole dataset.
  EXPECT_LT(result.MeanCandidates(), 0.8 * w.base.rows());
}

TEST(HierarchicalTest, CountsModelsInTree) {
  const Workload& w = SmallWorkload();
  HierarchicalConfig config;
  config.fanouts = {2, 2};
  config.model = FastConfig(2);
  config.model.epochs = 4;
  HierarchicalUspPartitioner tree(config);
  tree.Train(w.base, w.knn_matrix);
  // Root + up to 2 children.
  EXPECT_GE(tree.NumModels(), 1u);
  EXPECT_LE(tree.NumModels(), 3u);
  EXPECT_GT(tree.ParameterCount(), 0u);
}

}  // namespace
}  // namespace usp
