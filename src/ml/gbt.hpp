// Gradient-boosted trees (XGBoost-style comparison model).
//
// One-vs-rest logistic boosting: per class, shallow regression trees are
// fit to the negative gradient of the log loss and leaf values take a
// Newton step, as in Friedman's classic GBM.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"

namespace droppkt::ml {

struct GradientBoostingParams {
  std::size_t num_rounds = 80;
  double learning_rate = 0.15;
  int max_depth = 3;
  std::size_t min_samples_leaf = 5;
  double subsample = 0.8;  // row subsampling per round
  std::uint64_t seed = 11;
};

/// Regression tree used internally by boosting (squared-error splits).
/// Exposed for testing.
class RegressionTree {
 public:
  RegressionTree(int max_depth, std::size_t min_samples_leaf);

  /// Fit targets[i] over rows[i] of `data` restricted to `indices`.
  void fit(const Dataset& data, const std::vector<double>& targets,
           std::span<const std::size_t> indices);

  double predict(std::span<const double> features) const;

  /// Index of the leaf a row lands in (for Newton leaf re-fitting).
  std::size_t leaf_id(std::span<const double> features) const;
  std::size_t leaf_count() const { return leaf_ids_.size(); }

  /// Overwrite a leaf's value (Newton step).
  void set_leaf_value(std::size_t leaf, double value);

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;
    std::size_t leaf_index = 0;
  };
  std::int32_t build(const Dataset& data, const std::vector<double>& targets,
                     std::vector<std::size_t>& indices, int depth);
  const Node& descend(std::span<const double> features) const;

  int max_depth_ = 1;
  std::size_t min_samples_leaf_ = 1;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> leaf_ids_;  // leaf index -> node index
};

/// One-vs-rest gradient-boosted classifier.
class GradientBoosting final : public Classifier {
 public:
  explicit GradientBoosting(GradientBoostingParams params = {});

  void fit(const Dataset& train) override;
  int predict(std::span<const double> features) const override;
  std::vector<double> predict_proba(std::span<const double> features) const override;

 private:
  double raw_score(std::span<const double> features, int cls) const;

  GradientBoostingParams params_;
  std::vector<std::vector<RegressionTree>> ensembles_;  // per class
  std::vector<double> base_score_;                      // per-class prior
  int num_classes_ = 0;
  std::size_t num_features_ = 0;  // 0 until fit
};

}  // namespace droppkt::ml
