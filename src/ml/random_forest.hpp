// Random Forest classifier — the paper's model of choice ("we present
// results using Random Forest ... as it yielded the highest accuracy").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"

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
  /// sequentially. The trained forest (trees, OOB error, importances) is
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
  double oob_merge_s = 0.0;       // sequential OOB vote merge + error
  /// Per-tree training seconds (split search + OOB predictions), indexed
  /// by tree. Workers write disjoint slots, so the vector is exact for
  /// any thread count; together with the pool's contiguous chunking it
  /// reconstructs per-worker busy time.
  std::vector<double> tree_seconds;
};

/// Bagged CART ensemble with per-split feature subsampling, soft voting,
/// Gini feature importance and out-of-bag error. The features are binned
/// once per fit (ColumnMatrix) and every tree searches splits over the
/// shared bins (see DecisionTree). Trees train concurrently on a
/// util::ThreadPool; see RandomForestParams::num_threads.
class RandomForest final : public Classifier, public PoolTrainable {
 public:
  explicit RandomForest(RandomForestParams params = {});

  void fit(const Dataset& train) override;

  /// Train on a caller-owned pool (tree-granular tasks); bit-identical to
  /// fit() — cross_validate shares one pool across all folds this way.
  void fit_on_pool(const Dataset& train, util::ThreadPool& pool) override;
  int predict(std::span<const double> features) const override;
  std::vector<double> predict_proba(std::span<const double> features) const override;

  /// Batch prediction over a row-major feature matrix (num_rows x
  /// num_features, contiguous). Writes mean per-class probabilities into
  /// `out` (size num_rows x num_classes) with no per-row or per-tree
  /// allocations. Rows are split across `num_threads` workers (0 =
  /// hardware concurrency); output is identical for any thread count.
  void predict_proba_batch(std::span<const double> matrix,
                           std::span<double> out,
                           std::size_t num_threads = 1) const;

  /// Same over a Dataset's rows.
  void predict_proba_batch(const Dataset& data, std::span<double> out,
                           std::size_t num_threads = 1) const;

  /// Single-row probabilities into a caller buffer (size num_classes) —
  /// the zero-allocation path streaming callers pair with a reusable
  /// feature span.
  void predict_proba_into(std::span<const double> features,
                          std::span<double> out) const;

  /// Argmax labels for every row of `data`.
  std::vector<int> predict_batch(const Dataset& data,
                                 std::size_t num_threads = 1) const;

  /// Mean decrease in Gini impurity per feature, normalized to sum to 1.
  std::vector<double> feature_importances() const;

  /// Importances paired with names, sorted descending.
  std::vector<std::pair<std::string, double>> ranked_importances() const;

  /// Out-of-bag error estimate from the last fit (empty if every row was
  /// in-bag for all trees).
  std::optional<double> oob_error() const { return oob_error_; }

  /// Phase timings of the last fit(); nullptr before any fit, or unless
  /// RandomForestParams::collect_timing was set.
  const RandomForestFitTiming* last_fit_timing() const {
    return params_.collect_timing && !fit_timing_.tree_seconds.empty()
               ? &fit_timing_
               : nullptr;
  }

  std::size_t num_trees() const { return trees_.size(); }
  /// Read access to one fitted tree (t < num_trees()) — CompiledForest
  /// flattens the ensemble through this.
  const DecisionTree& tree(std::size_t t) const { return trees_[t]; }
  int num_classes() const { return num_classes_; }
  std::size_t num_features() const { return feature_names_.size(); }

 private:
  void predict_proba_row(std::span<const double> features,
                         std::span<double> out) const;
  void fit_impl(const Dataset& train, util::ThreadPool* pool);

  RandomForestParams params_;
  std::vector<DecisionTree> trees_;
  std::vector<std::string> feature_names_;
  int num_classes_ = 0;
  std::optional<double> oob_error_;
  RandomForestFitTiming fit_timing_;
};

}  // namespace droppkt::ml
