#include "core/ensemble.h"

#include <algorithm>

#include "index/query_planner.h"

namespace usp {

UspEnsemble::UspEnsemble(UspEnsembleConfig config)
    : config_(std::move(config)) {
  USP_CHECK(config_.num_models >= 1);
}

UspEnsemble::UspEnsemble(UspEnsembleConfig config, MatrixView base,
                         std::vector<std::unique_ptr<UspPartitioner>> models,
                         std::vector<std::unique_ptr<PartitionIndex>> indexes,
                         std::vector<float> weights)
    : config_(std::move(config)),
      base_(base),
      dist_(DistanceComputer(base, Metric::kSquaredL2)),
      models_(std::move(models)),
      indexes_(std::move(indexes)),
      weights_(std::move(weights)) {
  USP_CHECK(!models_.empty() && models_.size() == indexes_.size());
}

void UspEnsemble::Train(const Matrix& data, const KnnResult& knn_matrix) {
  base_ = MatrixView(data);
  dist_.emplace(base_, Metric::kSquaredL2);
  const size_t n = data.rows();
  const size_t kp = knn_matrix.k;
  models_.clear();
  indexes_.clear();
  weights_.assign(n, 1.0f);  // W_1: equal weights (Alg. 3 input)

  for (size_t j = 0; j < config_.num_models; ++j) {
    UspTrainConfig model_config = config_.model;
    model_config.seed = config_.model.seed + 0x9E37 * (j + 1);
    auto model = std::make_unique<UspPartitioner>(model_config);
    model->Train(data, knn_matrix, &weights_);
    auto index = std::make_unique<PartitionIndex>(&data, model.get());

    if (j + 1 < config_.num_models) {
      // Alg. 3b: raw weight = number of the point's k' neighbors placed in a
      // different bin by this model; multiply into the running weights so only
      // points *every* previous model failed keep high weight.
      const std::vector<uint32_t>& bins = index->assignments();
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        uint32_t misplaced = 0;
        const uint32_t* nbrs = knn_matrix.Row(i);
        for (size_t t = 0; t < kp; ++t) {
          if (bins[nbrs[t]] != bins[i]) ++misplaced;
        }
        weights_[i] *= static_cast<float>(misplaced) + config_.weight_floor;
        sum += weights_[i];
      }
      // Normalize to mean 1 so the quality term keeps the same scale as the
      // balance term across ensemble stages.
      const float scale =
          sum > 0.0 ? static_cast<float>(n / sum) : 1.0f;
      for (auto& w : weights_) w *= scale;
    }

    models_.push_back(std::move(model));
    indexes_.push_back(std::move(index));
  }
}

size_t UspEnsemble::EstimateCandidates(size_t budget) const {
  size_t total = 0;
  for (const auto& index : indexes_) {
    total += index->EstimateCandidates(budget);
    if (total >= size()) return size();
  }
  return total;
}

std::vector<Matrix> UspEnsemble::ScoreQueries(MatrixView queries) const {
  std::vector<Matrix> scores;
  scores.reserve(models_.size());
  for (const auto& model : models_) {
    scores.push_back(model->ScoreBins(queries));
  }
  return scores;
}

size_t UspEnsemble::GatherCandidates(const std::vector<Matrix>& scores,
                                     size_t q, size_t num_probes,
                                     std::vector<uint32_t>* order,
                                     std::vector<uint32_t>* candidates) const {
  const size_t e = models_.size();
  if (config_.combine == EnsembleCombine::kBestConfidence) {
    // Alg. 4 steps 3-4: confidence = the model's top bin probability.
    size_t best_model = 0;
    float best_conf = -1.0f;
    for (size_t j = 0; j < e; ++j) {
      const float* row = scores[j].Row(q);
      const float conf = *std::max_element(row, row + scores[j].cols());
      if (conf > best_conf) {
        best_conf = conf;
        best_model = j;
      }
    }
    return indexes_[best_model]->table().Collect(
        scores[best_model].Row(q), num_probes, order, candidates);
  }
  candidates->clear();
  size_t probes = 0;
  for (size_t j = 0; j < e; ++j) {
    const BinLookupTable& table = indexes_[j]->table();
    const size_t model_probes =
        table.RankProbes(scores[j].Row(q), num_probes, order);
    table.Gather(*order, model_probes, candidates);
    probes += model_probes;
  }
  // The members' bins overlap, so the union repeats ids. This is the one
  // gather that can, and it dedupes before the rerank and range filter.
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
  return probes;
}

BatchSearchResult UspEnsemble::SearchBatch(const SearchRequest& request) const {
  USP_CHECK(!base_.empty() && !models_.empty());
  // Planner hook: sparse selectors skip the whole score/merge/rerank pipeline
  // in favor of an allowed-set scan (index/query_planner.h).
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const std::vector<Matrix> scores = ScoreQueries(request.queries);
  return RerankGathered(
      request.queries, request.options, *dist_,
      [&](size_t q, std::vector<uint32_t>* order,
          std::vector<uint32_t>* candidates) {
        return GatherCandidates(scores, q, request.options.budget, order,
                                candidates);
      });
}

RadiusResult UspEnsemble::RadiusSearchBatch(const RadiusRequest& request) const {
  USP_CHECK(!base_.empty() && !models_.empty());
  const std::vector<Matrix> scores = ScoreQueries(request.queries);
  return RangeFilterGathered(
      request, *dist_,
      [&](size_t q, std::vector<uint32_t>* order,
          std::vector<uint32_t>* candidates) {
        return GatherCandidates(scores, q, request.options.budget, order,
                                candidates);
      });
}

size_t UspEnsemble::ParameterCount() const {
  size_t total = 0;
  for (const auto& model : models_) total += model->ParameterCount();
  return total;
}

}  // namespace usp
