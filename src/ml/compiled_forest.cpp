#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace droppkt::ml {

namespace {

// Rows per cache tile in the batch path: 256 rows x 38 features x 8 bytes
// ≈ 76 KiB of input plus the output slab stay cache-resident while each
// tree's node arrays are reused across the whole tile.
constexpr std::size_t kRowTile = 256;

// Sanity caps for load(): a model file is operator-supplied input, and a
// claimed dimension past these is hostile or corrupt. Nodes and
// leaf-pool length are bounded well below the int32 offset range.
constexpr std::size_t kMaxLoadClasses = 4096;
constexpr std::size_t kMaxLoadFeatures = 1 << 20;
constexpr std::size_t kMaxLoadTrees = 1 << 16;
constexpr std::size_t kMaxLoadNodes = 1 << 26;
// load() grows its arrays as entries arrive from this capped reserve, so
// a header claiming 2^26 nodes costs only as much memory as the stream
// actually holds before it runs dry.
constexpr std::size_t kLoadReserve = 4096;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

[[noreturn]] void cf_parse_fail(const std::string& what) {
  throw ParseError("CompiledForest::load: " + what);
}

}  // namespace

void CompiledForest::compute_depths() {
  // Forward pass: children always follow their parent, so one ascending
  // sweep labels every reachable node with its tree and depth.
  const std::size_t n = feature_.size();
  depth_.assign(roots_.size(), 0);
  std::vector<std::int32_t> tree_of(n, -1);
  std::vector<std::int32_t> node_depth(n, 0);
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    tree_of[static_cast<std::size_t>(roots_[t])] = static_cast<std::int32_t>(t);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t t = tree_of[i];
    if (t < 0 || is_leaf(i)) continue;
    const auto l = static_cast<std::size_t>(left_[i]);
    tree_of[l] = tree_of[l + 1] = t;
    node_depth[l] = node_depth[l + 1] = node_depth[i] + 1;
    depth_[static_cast<std::size_t>(t)] =
        std::max(depth_[static_cast<std::size_t>(t)], node_depth[i] + 1);
  }
}

CompiledForest CompiledForest::compile(std::span<const DecisionTree> trees) {
  DROPPKT_EXPECT(!trees.empty(), "CompiledForest::compile: no trees");
  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : trees) {
    DROPPKT_EXPECT(tree.node_count() > 0,
                   "CompiledForest::compile: tree is not fitted");
    // A wider tree could index features past the row at predict time.
    DROPPKT_EXPECT(tree.num_features() == trees[0].num_features(),
                   "CompiledForest::compile: trees disagree on width");
    total_nodes += tree.node_count();
  }
  DROPPKT_EXPECT(total_nodes <= kMaxLoadNodes,
                 "CompiledForest::compile: forest too large for int32 offsets");

  CompiledForest cf;
  cf.num_classes_ = trees[0].num_classes();
  cf.num_features_ = static_cast<std::int32_t>(trees[0].num_features());
  cf.feature_.reserve(total_nodes);
  cf.threshold_.reserve(total_nodes);
  cf.left_.reserve(total_nodes);
  cf.leaf_off_.reserve(total_nodes);
  cf.roots_.reserve(trees.size());

  const auto c_count = static_cast<std::size_t>(cf.num_classes_);
  auto alloc_node = [&cf]() {  // a leaf until its source says otherwise
    const auto idx = static_cast<std::int32_t>(cf.feature_.size());
    cf.feature_.push_back(0);
    cf.threshold_.push_back(kNaN);
    cf.left_.push_back(idx - 1);
    cf.leaf_off_.push_back(0);
    return idx;
  };

  // (source node, destination slot) pairs; both children's slots are
  // allocated when the parent is emitted so siblings land adjacent and
  // children always follow their parent.
  std::vector<std::pair<std::int32_t, std::int32_t>> stack;
  for (const DecisionTree& tree : trees) {
    cf.roots_.push_back(alloc_node());
    stack.push_back({0, cf.roots_.back()});
    while (!stack.empty()) {
      const auto [src, dst] = stack.back();
      stack.pop_back();
      const auto dsti = static_cast<std::size_t>(dst);
      const auto nv = tree.node_view(static_cast<std::size_t>(src));
      if (nv.feature < 0) {
        DROPPKT_EXPECT(nv.class_probs.size() == c_count,
                       "CompiledForest::compile: leaf distribution width");
        // Leaf: keep the self-loop alloc_node installed; record where its
        // distribution lives.
        cf.leaf_off_[dsti] = static_cast<std::int32_t>(cf.leaf_probs_.size());
        cf.leaf_probs_.insert(cf.leaf_probs_.end(), nv.class_probs.begin(),
                              nv.class_probs.end());
      } else {
        cf.feature_[dsti] = nv.feature;
        cf.threshold_[dsti] = nv.threshold;
        const std::int32_t l = alloc_node();
        alloc_node();  // right sibling, adjacent by construction
        cf.left_[dsti] = l;
        // Left pushed last so it pops first: depth-first pre-order keeps
        // each subtree contiguous in the arrays.
        stack.push_back({nv.right, l + 1});
        stack.push_back({nv.left, l});
      }
    }
  }
  cf.compute_depths();
  return cf;
}

void CompiledForest::walk_lanes(std::int32_t (&idx)[kLanes],
                                const double* const (&x)[kLanes],
                                std::int32_t depth) const {
  for (std::int32_t d = depth; d > 0; --d) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      idx[lane] = step(idx[lane], x[lane]);
    }
  }
}

void CompiledForest::predict_proba_into(std::span<const double> features,
                                        std::span<double> out) const {
  DROPPKT_EXPECT(compiled(), "CompiledForest: predict before compile/load");
  DROPPKT_EXPECT(
      features.size() == static_cast<std::size_t>(num_features_) &&
          out.size() == static_cast<std::size_t>(num_classes_),
      "CompiledForest::predict_proba_into: bad buffer size");
  std::fill(out.begin(), out.end(), 0.0);
  const double* x = features.data();
  const std::size_t n_trees = roots_.size();
  std::size_t t = 0;
  // kLanes trees descend this row in lockstep, each group for as many
  // steps as its deepest tree needs (shallower lanes park on their
  // self-looping leaf). Leaf distributions are then added in tree order,
  // so the sums round exactly as per-tree descent's.
  for (; t + kLanes <= n_trees; t += kLanes) {
    const double* xs[kLanes];
    std::int32_t idx[kLanes];
    std::int32_t dep = 0;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      xs[lane] = x;
      idx[lane] = roots_[t + lane];
      dep = std::max(dep, depth_[t + lane]);
    }
    walk_lanes(idx, xs, dep);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const double* p = leaf(idx[lane]);
      for (std::size_t c = 0; c < out.size(); ++c) out[c] += p[c];
    }
  }
  for (; t < n_trees; ++t) {
    const double* p = leaf(descend(roots_[t], depth_[t], x));
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(n_trees);
  for (auto& v : out) v *= inv;
  if (rows_predicted_ != nullptr) rows_predicted_->inc();
}

int CompiledForest::predict(std::span<const double> features) const {
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  predict_proba_into(features, proba);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

void CompiledForest::batch_rows(std::span<const double> matrix,
                                std::span<double> out,
                                std::size_t num_threads) const {
  const auto width = static_cast<std::size_t>(num_features_);
  const auto c_count = static_cast<std::size_t>(num_classes_);
  const std::size_t rows = matrix.size() / width;
  const double inv = 1.0 / static_cast<double>(roots_.size());
  if (rows_predicted_ != nullptr) rows_predicted_->add(rows);
  auto one_tile = [&](std::size_t tile) {
    const std::size_t lo = tile * kRowTile;
    const std::size_t hi = std::min(lo + kRowTile, rows);
    double* const slab = out.data() + lo * c_count;
    std::fill(slab, slab + (hi - lo) * c_count, 0.0);
    // Tree-major over the tile: per row the additions still happen in
    // tree order, so the result is byte-identical to predict_proba_into.
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const std::int32_t root = roots_[t];
      const std::int32_t dep = depth_[t];
      std::size_t r = lo;
      for (; r + kLanes <= hi; r += kLanes) {
        const double* x[kLanes];
        std::int32_t idx[kLanes];
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          x[lane] = matrix.data() + (r + lane) * width;
          idx[lane] = root;
        }
        walk_lanes(idx, x, dep);
        double* o = out.data() + r * c_count;
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          const double* p = leaf(idx[lane]);
          for (std::size_t c = 0; c < c_count; ++c) {
            o[lane * c_count + c] += p[c];
          }
        }
      }
      for (; r < hi; ++r) {
        const double* p = leaf(descend(root, dep, matrix.data() + r * width));
        double* o = out.data() + r * c_count;
        for (std::size_t c = 0; c < c_count; ++c) o[c] += p[c];
      }
    }
    for (std::size_t k = 0; k < (hi - lo) * c_count; ++k) slab[k] *= inv;
  };
  const std::size_t tiles = (rows + kRowTile - 1) / kRowTile;
  const std::size_t threads =
      std::min(util::ThreadPool::resolve_threads(num_threads),
               std::max<std::size_t>(1, tiles));
  if (threads <= 1 || tiles <= 1) {
    for (std::size_t tile = 0; tile < tiles; ++tile) one_tile(tile);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(0, tiles, one_tile);
  }
}

void CompiledForest::predict_proba_batch(std::span<const double> matrix,
                                         std::span<double> out,
                                         std::size_t num_threads) const {
  DROPPKT_EXPECT(compiled(), "CompiledForest: predict before compile/load");
  const auto width = static_cast<std::size_t>(num_features_);
  DROPPKT_EXPECT(width >= 1 && matrix.size() % width == 0,
                 "CompiledForest::predict_proba_batch: matrix width mismatch");
  const std::size_t rows = matrix.size() / width;
  DROPPKT_EXPECT(
      out.size() == rows * static_cast<std::size_t>(num_classes_),
      "CompiledForest::predict_proba_batch: bad output buffer size");
  batch_rows(matrix, out, num_threads);
}

void CompiledForest::predict_proba_batch(const Dataset& data,
                                         std::span<double> out,
                                         std::size_t num_threads) const {
  DROPPKT_EXPECT(compiled(), "CompiledForest: predict before compile/load");
  DROPPKT_EXPECT(
      data.num_features() == static_cast<std::size_t>(num_features_),
      "CompiledForest::predict_proba_batch: dataset width mismatch");
  DROPPKT_EXPECT(
      out.size() == data.size() * static_cast<std::size_t>(num_classes_),
      "CompiledForest::predict_proba_batch: bad output buffer size");
  if (data.size() == 0) return;
  // Dataset storage is row-major and contiguous, so its rows form one
  // matrix span starting at row 0.
  batch_rows({data.row(0).data(), data.size() * data.num_features()}, out,
             num_threads);
}

void CompiledForest::save(std::ostream& os) const {
  DROPPKT_EXPECT(compiled(), "CompiledForest::save: not compiled");
  os.precision(std::numeric_limits<double>::max_digits10);
  const std::size_t n = num_nodes();
  os << "droppkt-cf v1\n";
  os << num_classes_ << ' ' << num_features_ << ' ' << roots_.size() << ' '
     << n << ' ' << leaf_probs_.size() << '\n';
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    os << roots_[t] << (t + 1 == roots_.size() ? '\n' : ' ');
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (is_leaf(i)) {
      // Leaf, stored logically: feature -1, offset into the prob pool.
      os << "-1 0 " << leaf_off_[i] << '\n';
    } else {
      os << feature_[i] << ' ' << threshold_[i] << ' ' << left_[i] << '\n';
    }
  }
  const auto c_count = static_cast<std::size_t>(num_classes_);
  for (std::size_t i = 0; i < leaf_probs_.size(); ++i) {
    os << leaf_probs_[i] << ((i + 1) % c_count == 0 ? '\n' : ' ');
  }
}

CompiledForest CompiledForest::load(std::istream& is) {
  std::string header;
  std::getline(is, header);
  if (header != "droppkt-cf v1") {
    cf_parse_fail("unrecognized header '" + header + "'");
  }
  std::size_t n_features = 0, n_trees = 0, n_nodes = 0, n_leaf = 0;
  CompiledForest cf;
  is >> cf.num_classes_ >> n_features >> n_trees >> n_nodes >> n_leaf;
  if (!is.good()) cf_parse_fail("truncated dimensions");
  const auto c_count = static_cast<std::size_t>(cf.num_classes_);
  if (cf.num_classes_ < 1 || c_count > kMaxLoadClasses || n_features < 1 ||
      n_features > kMaxLoadFeatures || n_trees < 1 ||
      n_trees > kMaxLoadTrees || n_nodes < 1 || n_nodes > kMaxLoadNodes ||
      n_leaf < c_count || n_leaf > kMaxLoadNodes * 2 ||
      n_leaf % c_count != 0) {
    cf_parse_fail("implausible dimensions");
  }
  cf.num_features_ = static_cast<std::int32_t>(n_features);
  cf.roots_.reserve(std::min(n_trees, kLoadReserve));
  for (std::size_t t = 0; t < n_trees; ++t) {
    std::int32_t root = 0;
    is >> root;
    if (is.fail()) cf_parse_fail("truncated roots");
    if (root < 0 || static_cast<std::size_t>(root) >= n_nodes) {
      cf_parse_fail("root index out of range");
    }
    cf.roots_.push_back(root);
  }
  const std::size_t node_reserve = std::min(n_nodes, kLoadReserve);
  cf.feature_.reserve(node_reserve);
  cf.threshold_.reserve(node_reserve);
  cf.left_.reserve(node_reserve);
  cf.leaf_off_.reserve(node_reserve);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    std::int32_t feature = 0, left = 0;
    double threshold = 0.0;
    is >> feature >> threshold >> left;
    if (is.fail()) cf_parse_fail("truncated node " + std::to_string(i));
    if (feature >= 0) {
      // Internal: children must exist and strictly follow the parent.
      if (static_cast<std::size_t>(feature) >= n_features ||
          !std::isfinite(threshold) || left <= static_cast<std::int32_t>(i) ||
          static_cast<std::size_t>(left) + 2 > n_nodes) {
        cf_parse_fail("malformed internal node " + std::to_string(i));
      }
      cf.feature_.push_back(feature);
      cf.threshold_.push_back(threshold);
      cf.left_.push_back(left);
      cf.leaf_off_.push_back(0);
    } else if (feature != -1 || left < 0 ||
               static_cast<std::size_t>(left) % c_count != 0 ||
               static_cast<std::size_t>(left) + c_count > n_leaf) {
      cf_parse_fail("malformed leaf node " + std::to_string(i));
    } else {
      // Leaf: install the self-loop hot form directly.
      cf.feature_.push_back(0);
      cf.threshold_.push_back(kNaN);
      cf.left_.push_back(static_cast<std::int32_t>(i) - 1);
      cf.leaf_off_.push_back(left);
    }
  }
  // In-degree guard, sized only now that every node is in: each node may
  // be the child of at most one internal node and roots of none —
  // together with "children follow parents" this forces a forest of
  // proper disjoint trees, so the fixed-depth descent computed below
  // reaches a leaf on every path.
  std::vector<std::uint8_t> indegree(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (cf.is_leaf(i)) continue;
    const auto l = static_cast<std::size_t>(cf.left_[i]);
    if (++indegree[l] > 1 || ++indegree[l + 1] > 1) {
      cf_parse_fail("node with multiple parents");
    }
  }
  for (const std::int32_t root : cf.roots_) {
    if (indegree[static_cast<std::size_t>(root)] != 0) {
      cf_parse_fail("root is another node's child");
    }
  }
  cf.leaf_probs_.reserve(std::min(n_leaf, kLoadReserve));
  for (std::size_t i = 0; i < n_leaf; ++i) {
    double p = 0.0;
    is >> p;
    if (is.fail()) cf_parse_fail("truncated leaf distributions");
    if (!std::isfinite(p) || p < 0.0) {
      cf_parse_fail("invalid leaf probability");
    }
    cf.leaf_probs_.push_back(p);
  }
  cf.compute_depths();
  return cf;
}

}  // namespace droppkt::ml
