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

}  // namespace

// Split-search state, built once per fit_on. Sample *positions* (0..n-1,
// one per bootstrap draw) are the unit of bookkeeping so repeated row
// indices stay distinct. One position array is partitioned down the tree,
// O(W) per node for a window of W samples; each node accumulates class
// histograms of its candidate features over its window, clears only the
// cells the window touches and scans only its occupied bins, so every
// per-node cost is bounded by the window, not the bin count.
struct DecisionTree::HistContext {
  explicit HistContext(const ColumnMatrix& cols) : columns(cols) {}

  const ColumnMatrix& columns;
  std::size_t num_classes = 0;
  std::size_t stride = 0;  // num_classes weights + 1 sample count

  std::vector<std::uint32_t> pos;      // positions, partitioned down tree
  std::vector<std::uint32_t> tmp_pos;  // partition scratch
  std::vector<std::uint32_t> row_of_pos;
  std::vector<std::int32_t> label_of_pos;
  std::vector<double> weight_of_pos;

  std::vector<double> counts;          // node class distribution
  std::vector<double> left_counts;     // split-scan cumulative
  std::vector<double> hist;            // candidates x kMaxBins x stride
  std::vector<std::uint32_t> occupied; // bins the window touches
  std::vector<std::size_t> features;   // candidate scratch
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
  fit_on(train, indices, ColumnMatrix(train));
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

  HistContext ctx(columns);
  const std::size_t n = indices.size();
  ctx.num_classes = static_cast<std::size_t>(num_classes_);
  ctx.stride = ctx.num_classes + 1;
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
  ctx.hist.assign(max_cand * ColumnMatrix::kMaxBins * ctx.stride, 0.0);

  build(ctx, 0, n, 0, rng);
}

std::int32_t DecisionTree::build(HistContext& ctx, std::size_t begin,
                                 std::size_t end, int depth, util::Rng& rng) {
  const std::size_t window = end - begin;
  // Weighted class distribution at this node.
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

  // Candidate features: all, or a fresh random subset per split.
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

  // Per candidate: clear the cells this window touches (stale from
  // earlier nodes), accumulate the window, then scan the occupied bins in
  // ascending order — a boundary after an empty bin would repeat the
  // previous partition.
  for (std::size_t ci = 0; ci < features.size(); ++ci) {
    const std::size_t f = features[ci];
    double* h = ctx.hist.data() + ci * ColumnMatrix::kMaxBins * stride;
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

  if (best.feature < 0 || best.impurity >= node_gini - 1e-12) {
    return make_leaf();
  }

  // Gini importance: impurity decrease weighted by the node's share of the
  // training sample.
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
                 "DecisionTree: degenerate split");

  Node node;
  node.feature = best.feature;
  node.threshold = ctx.columns.bin_threshold(
      static_cast<std::size_t>(best.feature),
      static_cast<std::size_t>(best.bin));
  nodes_.push_back(std::move(node));
  const auto me = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t l = build(ctx, begin, begin + n_left, depth + 1, rng);
  const std::int32_t r = build(ctx, begin + n_left, end, depth + 1, rng);
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
