// Tabular dataset for supervised classification, plus ColumnMatrix: the
// quantized (binned) column form that tree training searches splits on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {

/// Dense feature matrix with integer class labels in [0, num_classes).
///
/// Invariants: all rows have the same width as the feature-name list;
/// labels are within range; num_classes >= 1.
class Dataset {
 public:
  Dataset(std::vector<std::string> feature_names, int num_classes);

  /// Pre-size the backing storage for `n_rows` total rows. Dataset builders
  /// almost always know the row count up front (one row per session, per
  /// fold index, per window); without this hint add_row grows the
  /// row-major matrix geometrically — log2(n) reallocations each copying
  /// the whole corpus.
  void reserve(std::size_t n_rows);

  void add_row(std::span<const double> features, int label);
  /// Same, from an owned vector (kept for call sites that build a fresh
  /// row anyway; batch loops should reuse one buffer via the span
  /// overload instead of allocating per row).
  void add_row(std::vector<double> features, int label);

  std::size_t size() const { return labels_.size(); }
  std::size_t num_features() const { return feature_names_.size(); }
  int num_classes() const { return num_classes_; }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  std::span<const double> row(std::size_t i) const;
  int label(std::size_t i) const;
  const std::vector<int>& labels() const { return labels_; }

  /// Count of each class in the dataset.
  std::vector<std::size_t> class_counts() const;

  /// New dataset containing the given rows (indices may repeat: bootstrap).
  Dataset subset(std::span<const std::size_t> indices) const;

  /// New dataset keeping only the named feature columns, in that order.
  Dataset select_features(const std::vector<std::string>& names) const;

 private:
  std::vector<std::string> feature_names_;
  int num_classes_;
  std::vector<double> data_;  // row-major
  std::vector<int> labels_;
};

/// A Dataset's features quantized for histogram split search: at most
/// kMaxBins value ranges per feature — LightGBM-style equal-frequency cuts
/// over the feature's sorted values — stored as one per-row bin index
/// column per feature, plus each boundary's raw-value threshold.
///
/// The split search scans one feature across many rows, so the bin
/// columns are contiguous (column-major) and one byte per cell. A forest
/// bins once and every tree shares the same read-only copy — safe to use
/// from many threads concurrently.
class ColumnMatrix {
 public:
  /// Hard ceiling on bins per feature: bin indices are stored as uint8_t.
  static constexpr std::size_t kMaxBins = 256;

  /// Quantize every feature of `data` into at most kMaxBins bins with
  /// equal-frequency cut points over its sorted values; a feature with
  /// fewer distinct values gets one bin per value.
  explicit ColumnMatrix(const Dataset& data);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return num_features_; }

  /// Number of bins feature `f` was quantized into (>= 1).
  std::size_t num_bins(std::size_t f) const {
    DROPPKT_EXPECT(f < num_features_, "ColumnMatrix::num_bins: out of range");
    return bin_count_[f];
  }

  /// All rows' bin indices for one feature, contiguous (row-indexed).
  std::span<const std::uint8_t> bin_column(std::size_t f) const {
    DROPPKT_EXPECT(f < num_features_,
                   "ColumnMatrix::bin_column: out of range");
    return {binned_.data() + f * num_rows_, num_rows_};
  }

  /// Raw-value threshold realizing "split after bin b": for every row,
  /// value <= threshold  iff  bin <= b. The last bin's threshold is
  /// +infinity (no right side — never a valid split).
  double bin_threshold(std::size_t f, std::size_t b) const {
    DROPPKT_EXPECT(f < num_features_ && b < bin_count_[f],
                   "ColumnMatrix::bin_threshold: out of range");
    return bin_thresholds_[f * kMaxBins + b];
  }

 private:
  std::size_t num_rows_;
  std::size_t num_features_;
  std::vector<std::uint8_t> binned_;        // per feature, row-indexed
  std::vector<std::uint32_t> bin_count_;    // per feature
  std::vector<double> bin_thresholds_;      // per feature, kMaxBins stride
};

/// Stratified k-fold split: each fold's class mix matches the dataset's.
/// Returns `k` disjoint index lists covering [0, n).
std::vector<std::vector<std::size_t>> stratified_folds(const Dataset& data,
                                                       std::size_t k,
                                                       util::Rng& rng);

/// Complement of a fold: all indices not in `fold` (training split).
std::vector<std::size_t> fold_complement(std::size_t n,
                                         std::span<const std::size_t> fold);

}  // namespace droppkt::ml
