#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/expect.hpp"

namespace droppkt::ml {

namespace {

double gini(const std::vector<double>& weighted_counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : weighted_counts) {
    const double p = c / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

// Window size at or above which a histogram node carries a full
// (all-features x kMaxBins) histogram, enabling parent-minus-sibling
// subtraction for the larger child. Below it, full-histogram zeroing and
// subtraction (O(F x bins)) would dwarf the node's own O(F x W) work, so
// small nodes accumulate compact candidate-only histograms instead, with
// clears and scans bounded by the window's occupied bins.
constexpr std::size_t kFullHistWindow = 2 * droppkt::ml::ColumnMatrix::kMaxBins;

}  // namespace

// Presorted split-search state, built once per fit_on and partitioned down
// the tree (scikit-learn style). Sample *positions* (0..n-1, one per
// bootstrap draw) are the unit of bookkeeping so repeated row indices stay
// distinct. Every node owns the same window [begin, end) in each feature's
// order/value arrays; `vals` mirrors `order` so the scan is sequential.
struct DecisionTree::FitContext {
  explicit FitContext(const ColumnMatrix& cols) : columns(cols) {}

  const ColumnMatrix& columns;
  std::size_t n = 0;              // sample count (positions)
  std::size_t num_features = 0;

  std::vector<std::uint32_t> order;  // num_features x n: positions by value
  std::vector<double> vals;          // num_features x n: value at order[...]
  std::vector<std::uint32_t> row_of_pos;
  std::vector<std::int32_t> label_of_pos;
  std::vector<double> weight_of_pos;

  // Per-node scratch (reused; no allocation inside build()).
  std::vector<std::uint8_t> goes_left;   // indexed by position
  std::vector<std::uint32_t> tmp_order;
  std::vector<double> tmp_vals;
  std::vector<double> counts;       // per-class, node distribution
  std::vector<double> left_counts;  // per-class, split scan

  std::uint32_t* feature_order(std::size_t f) { return order.data() + f * n; }
  double* feature_vals(std::size_t f) { return vals.data() + f * n; }
};

// Histogram split-search state (SplitMethod::kHistogram), built once per
// fit_on. Unlike the presorted FitContext, only ONE position array is
// partitioned down the tree — O(W) per node instead of O(F·W) — and each
// node's candidate scan reads per-feature class histograms accumulated
// over its window in O(W).
//
// Histogram memory: "full" histograms (all features x kMaxBins x stride)
// live in a slot stack, two slots per depth, so the larger child's
// histogram is derived from the parent's by subtracting the
// directly-accumulated smaller sibling (the LightGBM trick); slots deeper
// in the stack are untouched by a sibling's subtree, which is what makes
// the per-depth pair safe. Nodes whose larger child would fall below
// kFullHistWindow stop carrying full histograms; their descendants
// accumulate compact candidate-only histograms whose clears and scans are
// bounded by the window's occupied bins, not the bin count.
struct DecisionTree::HistContext {
  explicit HistContext(const ColumnMatrix& cols) : columns(cols) {}

  const ColumnMatrix& columns;
  std::size_t n = 0;
  std::size_t num_features = 0;
  std::size_t num_classes = 0;
  std::size_t stride = 0;     // num_classes weights + 1 sample count
  std::size_t full_size = 0;  // num_features x kMaxBins x stride

  std::vector<std::uint32_t> pos;      // positions, partitioned down tree
  std::vector<std::uint32_t> tmp_pos;  // partition scratch
  std::vector<std::uint32_t> row_of_pos;
  std::vector<std::int32_t> label_of_pos;
  std::vector<double> weight_of_pos;

  std::vector<double> counts;                   // node class distribution
  std::vector<double> left_counts;              // split-scan cumulative
  std::vector<std::vector<double>> full_slots;  // indexed by slot id
  std::vector<double> compact;         // candidates x kMaxBins x stride
  std::vector<std::uint32_t> occupied; // compact scan: bins in window
  std::vector<std::size_t> features;   // candidate scratch

  /// Size slot `s` on first use (outer vector may reallocate — re-fetch
  /// references after calling).
  void ensure_slot(std::size_t s) {
    if (full_slots.size() <= s) full_slots.resize(s + 1);
    if (full_slots[s].size() != full_size) full_slots[s].resize(full_size);
  }

  /// Zero + accumulate every feature's histogram over the window.
  void accumulate_full(std::size_t begin, std::size_t end,
                       std::vector<double>& hist) {
    std::fill(hist.begin(), hist.end(), 0.0);
    for (std::size_t f = 0; f < num_features; ++f) {
      const std::uint8_t* bins = columns.bin_column(f).data();
      double* h = hist.data() + f * ColumnMatrix::kMaxBins * stride;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t p = pos[i];
        double* cell =
            h + static_cast<std::size_t>(bins[row_of_pos[p]]) * stride;
        cell[static_cast<std::size_t>(label_of_pos[p])] += weight_of_pos[p];
        cell[num_classes] += 1.0;
      }
    }
  }

  /// out = parent - small, elementwise. Exact for the integer-valued
  /// sample counts; weighted class cells can carry rounding dust, which
  /// the gini math tolerates (and leaf probabilities never come from
  /// histograms — they are re-accumulated per node from positions).
  void subtract_full(const std::vector<double>& parent,
                     const std::vector<double>& small,
                     std::vector<double>& out) {
    for (std::size_t i = 0; i < full_size; ++i) out[i] = parent[i] - small[i];
  }
};

DecisionTree::DecisionTree(DecisionTreeParams params)
    : params_(std::move(params)) {
  DROPPKT_EXPECT(params_.max_depth >= 1, "DecisionTree: max_depth must be >= 1");
  DROPPKT_EXPECT(params_.min_samples_leaf >= 1,
                 "DecisionTree: min_samples_leaf must be >= 1");
  for (double w : params_.class_weights) {
    DROPPKT_EXPECT(w > 0.0, "DecisionTree: class weights must be positive");
  }
}

double DecisionTree::class_weight(int cls) const {
  const auto c = static_cast<std::size_t>(cls);
  return c < params_.class_weights.size() ? params_.class_weights[c] : 1.0;
}

void DecisionTree::fit(const Dataset& train) {
  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  fit_on(train, all);
}

void DecisionTree::fit_on(const Dataset& train,
                          std::span<const std::size_t> indices) {
  ColumnMatrix columns(train);
  if (params_.split_method == SplitMethod::kHistogram) columns.build_bins();
  fit_on(train, indices, columns);
}

void DecisionTree::fit_on(const Dataset& train,
                          std::span<const std::size_t> indices,
                          const ColumnMatrix& columns) {
  DROPPKT_EXPECT(!indices.empty(), "DecisionTree: cannot fit on empty sample");
  DROPPKT_EXPECT(columns.num_rows() == train.size() &&
                     columns.num_features() == train.num_features(),
                 "DecisionTree: column matrix does not match dataset");
  nodes_.clear();
  num_classes_ = train.num_classes();
  num_features_ = train.num_features();
  fit_sample_count_ = indices.size();
  importance_.assign(num_features_, 0.0);
  util::Rng rng(params_.seed);

  if (params_.split_method == SplitMethod::kHistogram) {
    fit_histogram(train, indices, columns, rng);
    return;
  }

  FitContext ctx(columns);
  const std::size_t n = indices.size();
  ctx.n = n;
  ctx.num_features = num_features_;
  ctx.row_of_pos.resize(n);
  ctx.label_of_pos.resize(n);
  ctx.weight_of_pos.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto row = static_cast<std::uint32_t>(indices[p]);
    ctx.row_of_pos[p] = row;
    ctx.label_of_pos[p] = train.label(row);
    ctx.weight_of_pos[p] = class_weight(ctx.label_of_pos[p]);
  }

  // Derive this sample's sorted layout from the ColumnMatrix's global
  // presort with a counting merge: walk each feature's rows in value order
  // and expand every row into the positions that drew it. O(F * (N + n))
  // instead of re-sorting each feature per tree, and deterministic — ties
  // in value follow (row, position) order, which never affects the chosen
  // splits (boundaries only exist between distinct values).
  ctx.order.resize(num_features_ * n);
  ctx.vals.resize(num_features_ * n);
  const std::size_t num_rows = columns.num_rows();
  std::vector<std::uint32_t> row_start(num_rows + 1, 0);
  for (std::size_t p = 0; p < n; ++p) ++row_start[ctx.row_of_pos[p] + 1];
  for (std::size_t r = 0; r < num_rows; ++r) row_start[r + 1] += row_start[r];
  std::vector<std::uint32_t> pos_by_row(n);
  {
    std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
    for (std::size_t p = 0; p < n; ++p) {
      pos_by_row[cursor[ctx.row_of_pos[p]]++] = static_cast<std::uint32_t>(p);
    }
  }
  for (std::size_t f = 0; f < num_features_; ++f) {
    const auto sorted_rows = columns.sorted_rows(f);
    const auto sorted_vals = columns.sorted_values(f);
    auto* order = ctx.feature_order(f);
    auto* vals = ctx.feature_vals(f);
    std::size_t k = 0;
    for (std::size_t i = 0; i < num_rows; ++i) {
      const std::uint32_t r = sorted_rows[i];
      for (std::uint32_t j = row_start[r]; j < row_start[r + 1]; ++j) {
        order[k] = pos_by_row[j];
        vals[k] = sorted_vals[i];
        ++k;
      }
    }
  }

  ctx.goes_left.resize(n);
  ctx.tmp_order.resize(n);
  ctx.tmp_vals.resize(n);
  ctx.counts.resize(static_cast<std::size_t>(num_classes_));
  ctx.left_counts.resize(static_cast<std::size_t>(num_classes_));

  build(ctx, 0, n, 0, rng);
}

std::int32_t DecisionTree::build(FitContext& ctx, std::size_t begin,
                                 std::size_t end, int depth, util::Rng& rng) {
  const std::size_t window = end - begin;
  // Weighted class distribution at this node; any feature's window holds
  // the same position set, so enumerate via feature 0.
  std::vector<double>& counts = ctx.counts;
  std::fill(counts.begin(), counts.end(), 0.0);
  double total_weight = 0.0;
  {
    const auto* order = ctx.feature_order(0) + begin;
    for (std::size_t i = 0; i < window; ++i) {
      const std::uint32_t pos = order[i];
      counts[static_cast<std::size_t>(ctx.label_of_pos[pos])] +=
          ctx.weight_of_pos[pos];
      total_weight += ctx.weight_of_pos[pos];
    }
  }
  const double node_gini = gini(counts, total_weight);

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.feature = -1;
    leaf.leaf_class = static_cast<std::int32_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    leaf.class_probs.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      leaf.class_probs[c] = counts[c] / total_weight;
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const bool pure = node_gini <= 1e-12;
  if (pure || depth >= params_.max_depth ||
      window < params_.min_samples_split) {
    return make_leaf();
  }

  // Candidate features: all, or a fresh random subset per split.
  std::vector<std::size_t> features;
  if (params_.max_features == 0 || params_.max_features >= num_features_) {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    const auto perm = rng.permutation(num_features_);
    features.assign(perm.begin(),
                    perm.begin() + static_cast<std::ptrdiff_t>(params_.max_features));
  }

  // Best split search: one linear scan per candidate feature over its
  // presorted window.
  struct Best {
    double impurity = 1e18;
    int feature = -1;
    double threshold = 0.0;
  } best;

  std::vector<double>& left_counts = ctx.left_counts;

  for (std::size_t f : features) {
    const double* vals = ctx.feature_vals(f) + begin;
    const std::uint32_t* order = ctx.feature_order(f) + begin;
    if (vals[0] == vals[window - 1]) continue;  // constant in this node

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double w_left = 0.0;
    std::size_t n_left = 0;
    for (std::size_t i = 0; i + 1 < window; ++i) {
      const std::uint32_t pos = order[i];
      const double w = ctx.weight_of_pos[pos];
      left_counts[static_cast<std::size_t>(ctx.label_of_pos[pos])] += w;
      w_left += w;
      ++n_left;
      if (vals[i] == vals[i + 1]) continue;  // not a boundary
      const std::size_t n_right = window - n_left;
      if (n_left < params_.min_samples_leaf || n_right < params_.min_samples_leaf)
        continue;
      const double w_right = total_weight - w_left;
      if (w_right <= 0.0) continue;
      // Right counts = node counts - left counts.
      double right_gini_sum = 0.0;
      double left_gini_sum = 0.0;
      for (std::size_t c = 0; c < left_counts.size(); ++c) {
        const double pl = left_counts[c] / w_left;
        left_gini_sum += pl * pl;
        const double pr = (counts[c] - left_counts[c]) / w_right;
        right_gini_sum += pr * pr;
      }
      const double weighted =
          (w_left * (1.0 - left_gini_sum) + w_right * (1.0 - right_gini_sum)) /
          total_weight;
      if (weighted < best.impurity) {
        best.impurity = weighted;
        best.feature = static_cast<int>(f);
        // Midpoint, unless rounding collapses it onto the upper value (for
        // adjacent doubles) — then split exactly at the lower value.
        double thr = 0.5 * (vals[i] + vals[i + 1]);
        if (!(thr >= vals[i] && thr < vals[i + 1])) {
          thr = vals[i];
        }
        best.threshold = thr;
      }
    }
  }

  if (best.feature < 0 || best.impurity >= node_gini - 1e-12) {
    return make_leaf();
  }

  // Gini importance: impurity decrease weighted by the node's share of the
  // training sample.
  importance_[static_cast<std::size_t>(best.feature)] +=
      (node_gini - best.impurity) * static_cast<double>(window) /
      static_cast<double>(fit_sample_count_);

  // Mark each position's side using the winning feature's window (values
  // are aligned with positions there).
  std::size_t n_left = 0;
  {
    const double* vals = ctx.feature_vals(best.feature) + begin;
    const std::uint32_t* order =
        ctx.feature_order(static_cast<std::size_t>(best.feature)) + begin;
    for (std::size_t i = 0; i < window; ++i) {
      const bool left = vals[i] <= best.threshold;
      ctx.goes_left[order[i]] = left ? 1 : 0;
      n_left += left ? 1 : 0;
    }
  }
  DROPPKT_ENSURE(n_left > 0 && n_left < window,
                 "DecisionTree: degenerate split");

  // Stable-partition every feature's window into [left | right], preserving
  // sort order within each side — children windows stay presorted.
  for (std::size_t f = 0; f < num_features_; ++f) {
    std::uint32_t* order = ctx.feature_order(f) + begin;
    double* vals = ctx.feature_vals(f) + begin;
    std::size_t lw = 0, rw = 0;
    for (std::size_t i = 0; i < window; ++i) {
      if (ctx.goes_left[order[i]]) {
        order[lw] = order[i];
        vals[lw] = vals[i];
        ++lw;
      } else {
        ctx.tmp_order[rw] = order[i];
        ctx.tmp_vals[rw] = vals[i];
        ++rw;
      }
    }
    std::copy(ctx.tmp_order.begin(),
              ctx.tmp_order.begin() + static_cast<std::ptrdiff_t>(rw),
              order + lw);
    std::copy(ctx.tmp_vals.begin(),
              ctx.tmp_vals.begin() + static_cast<std::ptrdiff_t>(rw),
              vals + lw);
  }

  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  nodes_.push_back(std::move(node));
  const auto me = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t l = build(ctx, begin, begin + n_left, depth + 1, rng);
  const std::int32_t r = build(ctx, begin + n_left, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(me)].left = l;
  nodes_[static_cast<std::size_t>(me)].right = r;
  return me;
}

void DecisionTree::fit_histogram(const Dataset& train,
                                 std::span<const std::size_t> indices,
                                 const ColumnMatrix& columns,
                                 util::Rng& rng) {
  DROPPKT_EXPECT(columns.bins_built(),
                 "DecisionTree: histogram split requires binned columns "
                 "(ColumnMatrix::build_bins)");
  HistContext ctx(columns);
  const std::size_t n = indices.size();
  ctx.n = n;
  ctx.num_features = num_features_;
  ctx.num_classes = static_cast<std::size_t>(num_classes_);
  ctx.stride = ctx.num_classes + 1;
  ctx.full_size = num_features_ * ColumnMatrix::kMaxBins * ctx.stride;
  ctx.pos.resize(n);
  ctx.tmp_pos.resize(n);
  ctx.row_of_pos.resize(n);
  ctx.label_of_pos.resize(n);
  ctx.weight_of_pos.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto row = static_cast<std::uint32_t>(indices[p]);
    ctx.pos[p] = static_cast<std::uint32_t>(p);
    ctx.row_of_pos[p] = row;
    ctx.label_of_pos[p] = train.label(row);
    ctx.weight_of_pos[p] = class_weight(ctx.label_of_pos[p]);
  }
  ctx.counts.resize(ctx.num_classes);
  ctx.left_counts.resize(ctx.num_classes);
  const std::size_t max_cand =
      params_.max_features == 0 || params_.max_features >= num_features_
          ? num_features_
          : params_.max_features;
  ctx.compact.assign(max_cand * ColumnMatrix::kMaxBins * ctx.stride, 0.0);

  int root_slot = -1;
  if (n >= kFullHistWindow) {
    root_slot = 0;
    ctx.ensure_slot(0);
    ctx.accumulate_full(0, n, ctx.full_slots[0]);
  }
  build_hist(ctx, 0, n, 0, root_slot, rng);
}

std::int32_t DecisionTree::build_hist(HistContext& ctx, std::size_t begin,
                                      std::size_t end, int depth,
                                      int hist_slot, util::Rng& rng) {
  const std::size_t window = end - begin;
  // Node class distribution, accumulated directly from the positions:
  // clean zeros for leaf probabilities even when the slot histogram was
  // derived by subtraction.
  std::vector<double>& counts = ctx.counts;
  std::fill(counts.begin(), counts.end(), 0.0);
  double total_weight = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t p = ctx.pos[i];
    counts[static_cast<std::size_t>(ctx.label_of_pos[p])] +=
        ctx.weight_of_pos[p];
    total_weight += ctx.weight_of_pos[p];
  }
  const double node_gini = gini(counts, total_weight);

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.feature = -1;
    leaf.leaf_class = static_cast<std::int32_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    leaf.class_probs.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      leaf.class_probs[c] = counts[c] / total_weight;
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const bool pure = node_gini <= 1e-12;
  if (pure || depth >= params_.max_depth ||
      window < params_.min_samples_split) {
    return make_leaf();
  }

  // Candidate features: same selection protocol as the exact path, so a
  // given seed explores the same feature subsets under either method.
  std::vector<std::size_t>& features = ctx.features;
  if (params_.max_features == 0 || params_.max_features >= num_features_) {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    const auto perm = rng.permutation(num_features_);
    features.assign(
        perm.begin(),
        perm.begin() + static_cast<std::ptrdiff_t>(params_.max_features));
  }

  struct Best {
    double impurity = 1e18;
    int feature = -1;
    int bin = -1;  // split after this bin: bin index <= bin goes left
  } best;

  std::vector<double>& left_counts = ctx.left_counts;
  const auto min_leaf_d = static_cast<double>(params_.min_samples_leaf);
  const auto window_d = static_cast<double>(window);
  const std::size_t stride = ctx.stride;

  // Evaluate the boundary after bin `b` given cumulative left stats.
  auto evaluate = [&](std::size_t f, std::size_t b, double w_left,
                      double n_left_d) {
    const double n_right_d = window_d - n_left_d;
    if (n_left_d < min_leaf_d || n_right_d < min_leaf_d) return;
    const double w_right = total_weight - w_left;
    if (w_left <= 0.0 || w_right <= 0.0) return;
    double left_gini_sum = 0.0;
    double right_gini_sum = 0.0;
    for (std::size_t c = 0; c < left_counts.size(); ++c) {
      const double pl = left_counts[c] / w_left;
      left_gini_sum += pl * pl;
      const double pr = (counts[c] - left_counts[c]) / w_right;
      right_gini_sum += pr * pr;
    }
    const double weighted = (w_left * (1.0 - left_gini_sum) +
                             w_right * (1.0 - right_gini_sum)) /
                            total_weight;
    if (weighted < best.impurity) {
      best.impurity = weighted;
      best.feature = static_cast<int>(f);
      best.bin = static_cast<int>(b);
    }
  };

  if (hist_slot >= 0) {
    // Full histogram available (accumulated or subtraction-derived):
    // cumulative scan over each candidate's bins, skipping empty ones —
    // a boundary after an empty bin repeats the previous partition.
    const std::vector<double>& hist =
        ctx.full_slots[static_cast<std::size_t>(hist_slot)];
    for (std::size_t f : features) {
      const double* h = hist.data() + f * ColumnMatrix::kMaxBins * stride;
      const std::size_t nb = ctx.columns.num_bins(f);
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      double w_left = 0.0;
      double n_left_d = 0.0;
      for (std::size_t b = 0; b < nb; ++b) {
        const double* cell = h + b * stride;
        const double cnt = cell[ctx.num_classes];
        if (cnt == 0.0) continue;
        for (std::size_t c = 0; c < left_counts.size(); ++c) {
          left_counts[c] += cell[c];
          w_left += cell[c];
        }
        n_left_d += cnt;
        evaluate(f, b, w_left, n_left_d);
      }
    }
  } else {
    // Compact path: accumulate only the candidate features, clear only
    // the cells this window touches (stale from earlier nodes), and scan
    // only the occupied bins in ascending order — every cost is bounded
    // by the window, not the bin count.
    for (std::size_t ci = 0; ci < features.size(); ++ci) {
      const std::size_t f = features[ci];
      double* h = ctx.compact.data() + ci * ColumnMatrix::kMaxBins * stride;
      const std::uint8_t* bins = ctx.columns.bin_column(f).data();
      for (std::size_t i = begin; i < end; ++i) {
        double* cell =
            h + static_cast<std::size_t>(bins[ctx.row_of_pos[ctx.pos[i]]]) *
                    stride;
        for (std::size_t s = 0; s < stride; ++s) cell[s] = 0.0;
      }
      ctx.occupied.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t p = ctx.pos[i];
        const auto b = static_cast<std::size_t>(bins[ctx.row_of_pos[p]]);
        double* cell = h + b * stride;
        if (cell[ctx.num_classes] == 0.0) {
          ctx.occupied.push_back(static_cast<std::uint32_t>(b));
        }
        cell[static_cast<std::size_t>(ctx.label_of_pos[p])] +=
            ctx.weight_of_pos[p];
        cell[ctx.num_classes] += 1.0;
      }
      std::sort(ctx.occupied.begin(), ctx.occupied.end());
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      double w_left = 0.0;
      double n_left_d = 0.0;
      for (const std::uint32_t b : ctx.occupied) {
        const double* cell = h + static_cast<std::size_t>(b) * stride;
        for (std::size_t c = 0; c < left_counts.size(); ++c) {
          left_counts[c] += cell[c];
          w_left += cell[c];
        }
        n_left_d += cell[ctx.num_classes];
        evaluate(f, b, w_left, n_left_d);
      }
    }
  }

  if (best.feature < 0 || best.impurity >= node_gini - 1e-12) {
    return make_leaf();
  }

  importance_[static_cast<std::size_t>(best.feature)] +=
      (node_gini - best.impurity) * static_cast<double>(window) /
      static_cast<double>(fit_sample_count_);

  // Stable-partition the position window by bin index — left keeps its
  // order in place, right goes through the scratch buffer.
  const std::uint8_t* best_bins =
      ctx.columns.bin_column(static_cast<std::size_t>(best.feature)).data();
  std::size_t lw = 0;
  std::size_t rw = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t p = ctx.pos[i];
    if (best_bins[ctx.row_of_pos[p]] <= best.bin) {
      ctx.pos[begin + lw] = p;
      ++lw;
    } else {
      ctx.tmp_pos[rw] = p;
      ++rw;
    }
  }
  std::copy(ctx.tmp_pos.begin(),
            ctx.tmp_pos.begin() + static_cast<std::ptrdiff_t>(rw),
            ctx.pos.begin() + static_cast<std::ptrdiff_t>(begin + lw));
  const std::size_t n_left = lw;
  DROPPKT_ENSURE(n_left > 0 && n_left < window,
                 "DecisionTree: degenerate histogram split");

  Node node;
  node.feature = best.feature;
  node.threshold = ctx.columns.bin_threshold(
      static_cast<std::size_t>(best.feature),
      static_cast<std::size_t>(best.bin));
  nodes_.push_back(std::move(node));
  const auto me = static_cast<std::int32_t>(nodes_.size() - 1);

  // Children histograms: when this node carried a full histogram and a
  // child is large enough to profit, accumulate the smaller child
  // directly and derive the larger by parent-minus-sibling subtraction.
  // The smaller child's slot is passed down too — it is already paid for.
  int left_slot = -1;
  int right_slot = -1;
  const std::size_t right_w = window - n_left;
  if (hist_slot >= 0 && std::max(n_left, right_w) >= kFullHistWindow) {
    const int small_slot = 2 * (depth + 1);
    const int large_slot = small_slot + 1;
    const bool left_is_small = n_left <= right_w;
    const std::size_t sb = left_is_small ? begin : begin + n_left;
    const std::size_t se = left_is_small ? begin + n_left : end;
    ctx.ensure_slot(static_cast<std::size_t>(small_slot));
    ctx.ensure_slot(static_cast<std::size_t>(large_slot));
    ctx.accumulate_full(sb, se,
                        ctx.full_slots[static_cast<std::size_t>(small_slot)]);
    ctx.subtract_full(ctx.full_slots[static_cast<std::size_t>(hist_slot)],
                      ctx.full_slots[static_cast<std::size_t>(small_slot)],
                      ctx.full_slots[static_cast<std::size_t>(large_slot)]);
    left_slot = left_is_small ? small_slot : large_slot;
    right_slot = left_is_small ? large_slot : small_slot;
  }
  const std::int32_t l =
      build_hist(ctx, begin, begin + n_left, depth + 1, left_slot, rng);
  const std::int32_t r =
      build_hist(ctx, begin + n_left, end, depth + 1, right_slot, rng);
  nodes_[static_cast<std::size_t>(me)].left = l;
  nodes_[static_cast<std::size_t>(me)].right = r;
  return me;
}

const DecisionTree::Node& DecisionTree::descend(
    std::span<const double> features) const {
  DROPPKT_EXPECT(!nodes_.empty(), "DecisionTree: predict before fit");
  DROPPKT_EXPECT(features.size() == num_features_,
                 "DecisionTree: feature width mismatch");
  std::size_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(
        features[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                     : n.right);
    // Per-hop on the prediction hot path, so debug-only; fit() emits
    // in-range child indices by construction.
    DROPPKT_ASSERT(cur < nodes_.size(),
                   "DecisionTree: descend left the node array");
  }
  return nodes_[cur];
}

int DecisionTree::predict(std::span<const double> features) const {
  return descend(features).leaf_class;
}

std::span<const double> DecisionTree::predict_proba_ref(
    std::span<const double> features) const {
  return descend(features).class_probs;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> features) const {
  const auto probs = predict_proba_ref(features);
  return {probs.begin(), probs.end()};
}

int DecisionTree::depth() const {
  // Iterative depth via parent-less traversal: root is node 0.
  if (nodes_.empty()) return 0;
  int max_depth = 0;
  std::vector<std::pair<std::size_t, int>> stack{{0, 1}};
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[i];
    if (n.feature >= 0) {
      stack.push_back({static_cast<std::size_t>(n.left), d + 1});
      stack.push_back({static_cast<std::size_t>(n.right), d + 1});
    }
  }
  return max_depth;
}

}  // namespace droppkt::ml
