#include "ml/dataset.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>

#include "util/csv.hpp"
#include "util/expect.hpp"

namespace droppkt::ml {

Dataset::Dataset(std::vector<std::string> feature_names, int num_classes)
    : feature_names_(std::move(feature_names)), num_classes_(num_classes) {
  DROPPKT_EXPECT(!feature_names_.empty(), "Dataset: need at least one feature");
  DROPPKT_EXPECT(num_classes_ >= 1, "Dataset: need at least one class");
}

void Dataset::reserve(std::size_t n_rows) {
  data_.reserve(n_rows * feature_names_.size());
  labels_.reserve(n_rows);
}

void Dataset::add_row(std::span<const double> features, int label) {
  DROPPKT_EXPECT(features.size() == feature_names_.size(),
                 "Dataset::add_row: row width must match feature names");
  DROPPKT_EXPECT(label >= 0 && label < num_classes_,
                 "Dataset::add_row: label out of range");
  data_.insert(data_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

void Dataset::add_row(std::vector<double> features, int label) {
  add_row(std::span<const double>(features), label);
}

std::span<const double> Dataset::row(std::size_t i) const {
  DROPPKT_EXPECT(i < labels_.size(), "Dataset::row: index out of range");
  return {data_.data() + i * feature_names_.size(), feature_names_.size()};
}

int Dataset::label(std::size_t i) const {
  DROPPKT_EXPECT(i < labels_.size(), "Dataset::label: index out of range");
  return labels_[i];
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (int l : labels_) ++counts[static_cast<std::size_t>(l)];
  return counts;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(feature_names_, num_classes_);
  out.reserve(indices.size());
  for (std::size_t i : indices) {
    auto r = row(i);
    out.add_row(std::vector<double>(r.begin(), r.end()), label(i));
  }
  return out;
}

Dataset Dataset::select_features(const std::vector<std::string>& names) const {
  std::vector<std::size_t> cols;
  cols.reserve(names.size());
  for (const auto& name : names) {
    auto it = std::find(feature_names_.begin(), feature_names_.end(), name);
    DROPPKT_EXPECT(it != feature_names_.end(),
                   "Dataset::select_features: unknown feature '" + name + "'");
    cols.push_back(static_cast<std::size_t>(it - feature_names_.begin()));
  }
  Dataset out(names, num_classes_);
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    auto r = row(i);
    std::vector<double> sel;
    sel.reserve(cols.size());
    for (std::size_t c : cols) sel.push_back(r[c]);
    out.add_row(std::move(sel), label(i));
  }
  return out;
}

ColumnMatrix::ColumnMatrix(const Dataset& data)
    : num_rows_(data.size()),
      num_features_(data.num_features()),
      binned_(num_rows_ * num_features_, 0),
      bin_count_(num_features_, 0),
      bin_thresholds_(num_features_ * kMaxBins,
                      std::numeric_limits<double>::infinity()) {
  // One feature at a time: gather its column, sort its rows by (value,
  // row), then walk the sorted values.
  std::vector<double> col(num_rows_);
  std::vector<std::uint32_t> rows(num_rows_);
  for (std::size_t f = 0; f < num_features_; ++f) {
    for (std::size_t i = 0; i < num_rows_; ++i) col[i] = data.row(i)[f];
    std::iota(rows.begin(), rows.end(), std::uint32_t{0});
    std::sort(rows.begin(), rows.end(),
              [&col](std::uint32_t a, std::uint32_t b) {
                return col[a] != col[b] ? col[a] < col[b] : a < b;
              });
    std::uint8_t* bins = binned_.data() + f * num_rows_;
    double* thresholds = bin_thresholds_.data() + f * kMaxBins;

    // Close a bin at the first distinct-value boundary at or past each
    // equal-frequency target. Integer targets (cum * kMaxBins >=
    // (made + 1) * N) keep the cuts exact and deterministic; a feature
    // with <= kMaxBins distinct values gets one bin per value.
    std::size_t bin = 0;
    std::size_t i = 0;
    while (i < num_rows_) {
      // Group of equal values [i, j).
      const double v = col[rows[i]];
      std::size_t j = i + 1;
      while (j < num_rows_ && col[rows[j]] == v) ++j;
      for (std::size_t k = i; k < j; ++k) {
        bins[rows[k]] = static_cast<std::uint8_t>(bin);
      }
      const bool last_group = j == num_rows_;
      // Close this bin once the equal-frequency quota is met (and a bin
      // remains to open); otherwise later groups keep joining it.
      const bool quota = j * kMaxBins >= (bin + 1) * num_rows_;
      if (!last_group && quota && bin + 1 < kMaxBins) {
        // Boundary between the group's last value and the next one:
        // midpoint, unless rounding collapses it onto the upper value
        // (adjacent doubles) — then split exactly at the lower value.
        const double lo = col[rows[j - 1]];
        const double hi = col[rows[j]];
        double thr = 0.5 * (lo + hi);
        if (!(thr >= lo && thr < hi)) thr = lo;
        thresholds[bin] = thr;
        ++bin;
      }
      i = j;
    }
    bin_count_[f] = static_cast<std::uint32_t>(bin + 1);
  }
}

int Dataset::majority_class() const {
  const auto counts = class_counts();
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

void Dataset::write_csv(std::ostream& os) const {
  auto header = feature_names_;
  header.push_back("label");
  util::CsvTable table(std::move(header));
  // Full precision so a round-trip reproduces the matrix exactly.
  auto precise = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < size(); ++i) {
    std::vector<std::string> cells;
    cells.reserve(num_features() + 1);
    for (double v : row(i)) cells.push_back(precise(v));
    cells.push_back(std::to_string(label(i)));
    table.add_row(std::move(cells));
  }
  table.write(os);
}

void Dataset::write_csv_file(const std::string& path) const {
  std::ofstream ofs(path);
  if (!ofs) throw std::runtime_error("Dataset: cannot open " + path);
  write_csv(ofs);
  if (!ofs) throw std::runtime_error("Dataset: write failed " + path);
}

Dataset Dataset::read_csv(std::istream& is, int num_classes) {
  const auto table = util::CsvTable::read(is);
  DROPPKT_EXPECT(table.num_cols() >= 2,
                 "Dataset::read_csv: need features plus a label column");
  DROPPKT_EXPECT(table.header().back() == "label",
                 "Dataset::read_csv: last column must be 'label'");
  std::vector<std::string> names(table.header().begin(),
                                 table.header().end() - 1);
  const std::size_t label_col = table.num_cols() - 1;
  int max_label = 0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    max_label = std::max(max_label,
                         static_cast<int>(table.at_double(r, label_col)));
  }
  Dataset data(std::move(names),
               num_classes > 0 ? num_classes : max_label + 1);
  data.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<double> row;
    row.reserve(label_col);
    for (std::size_t c = 0; c < label_col; ++c) {
      row.push_back(table.at_double(r, c));
    }
    data.add_row(std::move(row), static_cast<int>(table.at_double(r, label_col)));
  }
  return data;
}

Dataset Dataset::read_csv_file(const std::string& path, int num_classes) {
  std::ifstream ifs(path);
  if (!ifs) throw std::runtime_error("Dataset: cannot open " + path);
  return read_csv(ifs, num_classes);
}

std::vector<std::vector<std::size_t>> stratified_folds(const Dataset& data,
                                                       std::size_t k,
                                                       util::Rng& rng) {
  DROPPKT_EXPECT(k >= 2, "stratified_folds: need at least 2 folds");
  DROPPKT_EXPECT(data.size() >= k, "stratified_folds: need at least k rows");
  // Group indices by class, shuffle within class, deal round-robin.
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(data.num_classes()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    by_class[static_cast<std::size_t>(data.label(i))].push_back(i);
  }
  std::vector<std::vector<std::size_t>> folds(k);
  for (auto& cls : by_class) {
    const auto perm = rng.permutation(cls.size());
    for (std::size_t j = 0; j < cls.size(); ++j) {
      folds[j % k].push_back(cls[perm[j]]);
    }
  }
  for (auto& f : folds) std::sort(f.begin(), f.end());
  return folds;
}

std::vector<std::size_t> fold_complement(std::size_t n,
                                         std::span<const std::size_t> fold) {
  std::vector<bool> in_fold(n, false);
  for (std::size_t i : fold) {
    DROPPKT_EXPECT(i < n, "fold_complement: index out of range");
    in_fold[i] = true;
  }
  std::vector<std::size_t> out;
  out.reserve(n - fold.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_fold[i]) out.push_back(i);
  }
  return out;
}

}  // namespace droppkt::ml
