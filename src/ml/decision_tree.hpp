// CART decision-tree classifier (Gini impurity), trained by histogram
// split search over a ColumnMatrix's quantized feature bins.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {

struct DecisionTreeParams {
  int max_depth = 24;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Features considered per split; 0 means all (plain CART). Random
  /// forests pass ~sqrt(num_features).
  std::size_t max_features = 0;
  std::uint64_t seed = 1;
  /// Per-class sample weights for impurity and leaf probabilities; empty
  /// means uniform. Up-weighting a class trades precision for recall on
  /// it (e.g. an ISP chasing low-QoE sessions).
  std::vector<double> class_weights;
};

/// Single CART tree. Supports fitting on a row subset (indices may repeat —
/// bootstrap sample) and reports per-feature impurity decrease for Gini
/// importance.
///
/// Split search runs over ColumnMatrix's quantized feature bins: each node
/// accumulates per-class histograms of its candidate features over its
/// window of W samples and scans the occupied bins, O(mtry·W) per node,
/// then stable-partitions one position array into the children. A
/// feature with at most ColumnMatrix::kMaxBins distinct values gets one
/// bin per value, so its splits are the exact CART boundaries.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeParams params = {});

  void fit(const Dataset& train) override;

  /// Fit on a subset of rows (indices may repeat — bootstrap sample).
  void fit_on(const Dataset& train, std::span<const std::size_t> indices);

  /// Same, reusing caller-built bins of `train` — a forest bins once and
  /// shares them (read-only) across all trees/threads.
  void fit_on(const Dataset& train, std::span<const std::size_t> indices,
              const ColumnMatrix& columns);

  int predict(std::span<const double> features) const override;
  std::vector<double> predict_proba(std::span<const double> features) const override;

  /// Allocation-free probability lookup: a view of the leaf's stored
  /// distribution, valid while the tree is alive and unmodified.
  std::span<const double> predict_proba_ref(std::span<const double> features) const;

  /// Total impurity decrease attributed to each feature (unnormalized).
  const std::vector<double>& impurity_decrease() const { return importance_; }

  std::size_t node_count() const { return nodes_.size(); }
  int depth() const;
  /// Shape of the last fit's training data.
  int num_classes() const { return num_classes_; }
  std::size_t num_features() const { return num_features_; }

  /// Read-only flat view of one node, for forest compilation.
  /// feature == -1 marks a leaf (class_probs valid, children unset);
  /// otherwise left/right index other nodes of the same tree. `i` must be
  /// < node_count(); node 0 is the root.
  struct NodeView {
    int feature;
    double threshold;  // go left if x[feature] <= threshold
    std::int32_t left;
    std::int32_t right;
    std::span<const double> class_probs;
  };
  NodeView node_view(std::size_t i) const {
    const Node& n = nodes_[i];
    return {n.feature, n.threshold, n.left, n.right,
            {n.class_probs.data(), n.class_probs.size()}};
  }

 private:
  struct Node {
    // Internal node: feature >= 0; leaf: feature == -1.
    int feature = -1;
    double threshold = 0.0;      // go left if x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t leaf_class = 0;
    std::vector<double> class_probs;  // leaf only
  };

  struct HistContext;  // binned split-search state; see decision_tree.cpp

  std::int32_t build(HistContext& ctx, std::size_t begin, std::size_t end,
                     int depth, util::Rng& rng);
  const Node& descend(std::span<const double> features) const;
  double class_weight(int cls) const;

  DecisionTreeParams params_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::size_t fit_sample_count_ = 0;
};

}  // namespace droppkt::ml
