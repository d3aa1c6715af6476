// Flattened random-forest inference: structure-of-arrays node storage
// with branch-light fixed-depth descent, walked in lockstep lanes for
// both batch and single-row prediction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace droppkt::ml {

class Dataset;
class RandomForest;

/// A fitted RandomForest compiled into contiguous flat arrays.
///
/// RandomForest keeps each tree as a vector of Node structs whose leaves
/// own their probability vectors — pointer-chasing three levels deep per
/// lookup. CompiledForest lays every node of every tree into shared SoA
/// arrays (feature index, raw threshold, left-child offset, leaf-prob
/// offset) with sibling pairs adjacent, so one descent step is
/// `i = left[i] + (x[feature[i]] > threshold[i])` — a data-dependent add,
/// no branch on the comparison. Leaves self-loop for every input (see
/// the node arrays below), which makes the step total: descent runs a
/// FIXED number of iterations (the tree's depth) instead of testing for
/// a leaf each level. That removes the only unpredictable branch and lets
/// kLanes (8) independent descents run in lockstep — eight load chains in
/// flight instead of one, hiding most of the per-level load latency that
/// bounds the pointer-walk design. Both prediction paths use it:
///   * batch: eight rows walk one tree together;
///   * single row: eight trees walk the one row together, each group for
///     its deepest tree's step count (shallower lanes park on their
///     self-looping leaf), then any remainder trees walk one at a time.
///
/// Predictions are numerically byte-identical to the source forest's
/// predict_proba* family: per row, leaf distributions accumulate in tree
/// order and are scaled by 1/num_trees, the exact op order of
/// RandomForest::predict_proba_row. The batch path additionally blocks
/// rows into cache-sized tiles and sweeps all trees per tile, keeping
/// each tile's feature rows and output slab resident while the node
/// arrays stream through once per tile.
///
/// Input contract: feature values must not be NaN (the source forest
/// routes NaN right; compiled descent stays inside the node arrays but
/// the returned distribution is unspecified). Finite values, including
/// infinities, agree with the tree walk exactly.
class CompiledForest {
 public:
  CompiledForest() = default;

  /// Flatten a fitted forest. The result is self-contained — the source
  /// forest may be destroyed afterwards.
  static CompiledForest compile(const RandomForest& forest);

  bool compiled() const { return !roots_.empty(); }
  int num_classes() const { return num_classes_; }
  std::size_t num_features() const {
    return static_cast<std::size_t>(num_features_);
  }
  std::size_t num_trees() const { return roots_.size(); }
  /// Total nodes across all trees.
  std::size_t num_nodes() const { return feature_.size(); }

  /// Single-row probabilities into a caller buffer (size num_classes).
  /// Allocation-free — safe on the monitor's zero-alloc emit path.
  void predict_proba_into(std::span<const double> features,
                          std::span<double> out) const;

  /// Argmax class of one feature vector (allocates the probability
  /// buffer; hot paths use predict_proba_into with a reusable span).
  int predict(std::span<const double> features) const;

  /// Batch prediction over a row-major feature matrix (num_rows x
  /// num_features, contiguous); writes mean per-class probabilities into
  /// `out` (num_rows x num_classes). Rows are processed in cache-blocked
  /// tiles split across `num_threads` workers (0 = hardware concurrency);
  /// output is identical for any thread count and byte-identical to
  /// RandomForest::predict_proba_batch on the source forest.
  void predict_proba_batch(std::span<const double> matrix,
                           std::span<double> out,
                           std::size_t num_threads = 1) const;

  /// Same over a Dataset's rows.
  void predict_proba_batch(const Dataset& data, std::span<double> out,
                           std::size_t num_threads = 1) const;

  /// Count every predicted row into `rows` (a telemetry counter; nullptr
  /// unbinds). One relaxed add per single-row call, one per batch — the
  /// zero-alloc inference paths stay zero-alloc. Rebind after compile()
  /// assignment: a freshly compiled forest starts unbound.
  void bind_telemetry(telemetry::Counter* rows) { rows_predicted_ = rows; }

  /// Serialize the compiled forest (text format, versioned header; leaves
  /// are written in logical form, not as self-loops).
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  /// Rebuild from `save` output. Throws droppkt::ParseError on malformed
  /// input; validates every child offset, leaf offset and the
  /// one-parent-per-node tree shape so a hostile file cannot drive
  /// descent out of bounds or into a cycle.
  static CompiledForest load(std::istream& is);
  static CompiledForest load_file(const std::string& path);

 private:
  // Independent descents walked in lockstep. The fixed-trip-count descent
  // has no early exit, so the lanes issue back-to-back loads with no
  // branch between them — the out-of-order core overlaps their latencies
  // instead of serializing one chain.
  static constexpr std::size_t kLanes = 8;

  // One descent step; total for every node because leaves self-loop.
  std::int32_t step(std::int32_t i, const double* x) const {
    const auto u = static_cast<std::size_t>(i);
    // Mirror of the tree-walk rule "left if x[f] <= threshold", negated
    // so the right child is a +1 offset.
    return left_[u] +
           static_cast<std::int32_t>(!(x[feature_[u]] <= threshold_[u]));
  }

  // `depth` steps from node i over row x.
  std::int32_t descend(std::int32_t i, std::int32_t depth,
                       const double* x) const {
    for (; depth > 0; --depth) i = step(i, x);
    return i;
  }

  // Advance every lane `depth` steps: lane l from node idx[l] over row
  // x[l].
  void walk_lanes(std::int32_t (&idx)[kLanes],
                  const double* const (&x)[kLanes], std::int32_t depth) const;

  // The class distribution of leaf i.
  const double* leaf(std::int32_t i) const {
    return leaf_probs_.data() +
           static_cast<std::size_t>(leaf_off_[static_cast<std::size_t>(i)]);
  }

  bool is_leaf(std::size_t i) const {
    return left_[i] < static_cast<std::int32_t>(i);
  }

  void batch_rows(std::span<const double> matrix, std::span<double> out,
                  std::size_t num_threads) const;
  void compute_depths();

  // Parallel per-node arrays across all trees. Internal node:
  // feature_[i] >= 0, left_[i] is the left child and left_[i] + 1 the
  // right, both strictly after i. Leaf: left_[i] == i - 1,
  // feature_[i] == 0, threshold_[i] == NaN. `x <= NaN` is false for every
  // x, NaN included, so step() always adds 1 and lands back on i: a
  // self-loop for any input, however long a lockstep group parks the
  // lane there. leaf_off_[i] holds the offset of the leaf's num_classes_
  // probabilities (leaf_off_ is 0 at non-leaves; only leaves are ever
  // read from).
  std::vector<std::int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> leaf_off_;
  std::vector<std::int32_t> roots_;   // root node index per tree
  std::vector<std::int32_t> depth_;   // descent iterations per tree
  std::vector<double> leaf_probs_;    // num_classes_ per leaf, contiguous
  std::int32_t num_classes_ = 0;
  std::int32_t num_features_ = 0;
  /// Borrowed prediction-throughput counter; see bind_telemetry().
  telemetry::Counter* rows_predicted_ = nullptr;
};

}  // namespace droppkt::ml
