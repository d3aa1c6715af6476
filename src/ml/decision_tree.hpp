// CART decision-tree classifier (Gini impurity).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {

/// How fit_on searches for the best split at each node.
enum class SplitMethod {
  /// Presorted exact search over every distinct-value boundary.
  kExact,
  /// Histogram search over quantized feature bins (requires a
  /// ColumnMatrix with build_bins() called). O(rows) accumulation per
  /// node instead of presorted O(features x rows) scans, with
  /// parent-minus-sibling histogram subtraction for the larger child.
  /// Split quality is approximate (boundaries only exist between bins);
  /// the training bench gates the accuracy delta against kExact.
  kHistogram,
};

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
  /// Split search algorithm; kHistogram needs binned columns (the
  /// three-argument fit_on overload with ColumnMatrix::build_bins done).
  SplitMethod split_method = SplitMethod::kExact;
};

/// Single CART tree. Supports fitting on a row subset (indices may repeat —
/// bootstrap sample) and reports per-feature impurity decrease for Gini
/// importance.
///
/// Split search uses a presorted column-index structure: each feature's
/// sample order is sorted once per fit (O(F·N log N)) and then partitioned
/// down the tree, so every node's search is a linear scan — O(F·W) for a
/// window of W samples instead of the naive O(F·W log W) re-sort.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeParams params = {});

  void fit(const Dataset& train) override;

  /// Fit on a subset of rows (indices may repeat — bootstrap sample).
  void fit_on(const Dataset& train, std::span<const std::size_t> indices);

  /// Same, reusing a caller-built column-major copy of `train` — a forest
  /// transposes once and shares it (read-only) across all trees/threads.
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

  struct FitContext;   // presorted per-feature orders; see decision_tree.cpp
  struct HistContext;  // binned histogram state; see decision_tree.cpp

  std::int32_t build(FitContext& ctx, std::size_t begin, std::size_t end,
                     int depth, util::Rng& rng);
  void fit_histogram(const Dataset& train,
                     std::span<const std::size_t> indices,
                     const ColumnMatrix& columns, util::Rng& rng);
  std::int32_t build_hist(HistContext& ctx, std::size_t begin,
                          std::size_t end, int depth, int hist_slot,
                          util::Rng& rng);
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
