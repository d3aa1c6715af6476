// Random Forest classifier — the paper's model of choice ("we present
// results using Random Forest ... as it yielded the highest accuracy").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/compiled_forest.hpp"

namespace droppkt::ml {

struct RandomForestParams {
  std::size_t num_trees = 100;
  int max_depth = 24;
  std::size_t min_samples_leaf = 1;
  /// Features per split; 0 means floor(sqrt(num_features)).
  std::size_t max_features = 0;
  std::uint64_t seed = 42;
  /// Per-class weights (empty = uniform); see DecisionTreeParams.
  std::vector<double> class_weights;
  /// Worker threads for fit(); 0 means hardware concurrency, 1 trains
  /// sequentially. The trained forest (compiled form and importances) is
  /// bit-identical for every value — all randomness is drawn up front and
  /// results merge in tree order.
  std::size_t num_threads = 0;
  /// Record per-phase wall timings of fit() (see last_fit_timing()).
  /// Off by default: the clock reads are stats-only and never affect the
  /// fitted model, but they cost a syscall per tree.
  bool collect_timing = false;
};

/// Per-phase wall timings of the last fit(), populated when
/// RandomForestParams::collect_timing is set. Purely observational — the
/// fitted model is byte-identical with collection on or off.
struct RandomForestFitTiming {
  double bootstrap_draw_s = 0.0;  // sequential up-front RNG phase
  double column_build_s = 0.0;    // per-feature sort + binning
  double trees_wall_s = 0.0;      // parallel tree-training region
  /// Per-tree split-search seconds, indexed by tree. Workers write
  /// disjoint slots, so the vector is exact for any thread count;
  /// together with the pool's contiguous chunking it reconstructs
  /// per-worker busy time.
  std::vector<double> tree_seconds;
};

/// Bagged CART ensemble with per-split feature subsampling, soft voting
/// and Gini feature importance. The features are binned once per fit
/// (ColumnMatrix) and every tree searches splits over the shared bins
/// (see DecisionTree). Trees train concurrently on a util::ThreadPool;
/// see RandomForestParams::num_threads.
///
/// fit() ends by compiling the trees into a CompiledForest and dropping
/// them: every prediction, cross-validation's included, is served by
/// compiled(), the same code that serves a loaded model.
class RandomForest final : public Classifier, public PoolTrainable {
 public:
  explicit RandomForest(RandomForestParams params = {});

  void fit(const Dataset& train) override;

  /// Train on a caller-owned pool (tree-granular tasks); bit-identical to
  /// fit() — cross_validate shares one pool across all folds this way.
  void fit_on_pool(const Dataset& train, util::ThreadPool& pool) override;
  int predict(std::span<const double> features) const override;
  std::vector<double> predict_proba(std::span<const double> features) const override;

  /// The fitted forest in its serving form; not compiled() before fit.
  const CompiledForest& compiled() const { return compiled_; }

  /// Mean decrease in Gini impurity per feature, normalized to sum to 1.
  std::vector<double> feature_importances() const;

  /// Importances paired with names, sorted descending.
  std::vector<std::pair<std::string, double>> ranked_importances() const;

  /// Phase timings of the last fit(); nullptr before any fit, or unless
  /// RandomForestParams::collect_timing was set.
  const RandomForestFitTiming* last_fit_timing() const {
    return params_.collect_timing && !fit_timing_.tree_seconds.empty()
               ? &fit_timing_
               : nullptr;
  }

 private:
  void fit_impl(const Dataset& train, util::ThreadPool* pool);

  RandomForestParams params_;
  CompiledForest compiled_;
  std::vector<double> importances_;  // normalized; empty before fit
  std::vector<std::string> feature_names_;
  RandomForestFitTiming fit_timing_;
};

}  // namespace droppkt::ml
