// CompiledForest: bit-identity with per-tree descent (finite, NaN and
// infinite inputs, single-row and batch), degenerate shapes,
// serialization round-trip, and hostile-input hardening of load().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset make_problem(std::size_t n, std::uint64_t seed,
                     std::size_t num_features = 6, int num_classes = 3) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < num_features; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset d(std::move(names), num_classes);
  util::Rng rng(seed);
  std::vector<double> row(num_features);
  for (std::size_t i = 0; i < n; ++i) {
    const int label =
        static_cast<int>(rng.uniform_int(0, num_classes - 1));
    for (std::size_t f = 0; f < num_features; ++f) {
      row[f] = rng.normal(f < 2 ? label : 0.0, 1.0);
    }
    d.add_row(std::span<const double>(row), label);
  }
  return d;
}

// A forest's per-split feature subsampling.
DecisionTreeParams subsampled() {
  DecisionTreeParams p;
  p.max_features = 2;
  return p;
}

// `n` trees fitted on bootstrap draws over one shared ColumnMatrix, the
// way RandomForest::fit trains them.
std::vector<DecisionTree> fit_trees(const Dataset& train, std::size_t n,
                                    std::uint64_t seed,
                                    DecisionTreeParams params = subsampled()) {
  const ColumnMatrix columns(train);
  util::Rng rng(seed);
  std::vector<std::size_t> sample(train.size());
  std::vector<DecisionTree> trees;
  for (std::size_t t = 0; t < n; ++t) {
    for (auto& row : sample) {
      row = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(train.size()) - 1));
    }
    params.seed = rng();
    trees.emplace_back(params);
    trees.back().fit_on(train, sample, columns);
  }
  return trees;
}

// Row-major copy of a dataset's features.
std::vector<double> flatten(const Dataset& data) {
  std::vector<double> matrix;
  for (std::size_t r = 0; r < data.size(); ++r) {
    const auto row = data.row(r);
    matrix.insert(matrix.end(), row.begin(), row.end());
  }
  return matrix;
}

// `matrix` plus rows with NaN and ±infinity: each value alone in every
// feature, each filling a whole row, and one row mixing them.
std::vector<double> with_nonfinite_rows(std::vector<double> matrix,
                                        std::size_t width) {
  std::vector<double> row(width);
  for (const double v : {kNaN, kInf, -kInf}) {
    for (std::size_t f = 0; f < width; ++f) {
      std::fill(row.begin(), row.end(), 0.5);
      row[f] = v;
      matrix.insert(matrix.end(), row.begin(), row.end());
    }
    std::fill(row.begin(), row.end(), v);
    matrix.insert(matrix.end(), row.begin(), row.end());
  }
  for (std::size_t f = 0; f < width; ++f) {
    row[f] = f % 4 == 0 ? kNaN : f % 4 == 1 ? kInf : f % 4 == 2 ? -kInf : 0.5;
  }
  matrix.insert(matrix.end(), row.begin(), row.end());
  return matrix;
}

// The reference: per-tree descent, each tree's leaf distribution summed
// in tree order and scaled by 1/num_trees. Compiled output must equal it
// bit for bit — one row at a time and in batch at 1 and 4 threads.
void expect_matches_descent(const std::vector<DecisionTree>& trees,
                            const CompiledForest& cf,
                            std::span<const double> matrix) {
  ASSERT_EQ(cf.num_trees(), trees.size());
  ASSERT_EQ(cf.num_classes(), trees[0].num_classes());
  ASSERT_EQ(cf.num_features(), trees[0].num_features());
  const auto c_count = static_cast<std::size_t>(cf.num_classes());
  const std::size_t width = cf.num_features();
  const std::size_t rows = matrix.size() / width;
  const double inv = 1.0 / static_cast<double>(trees.size());

  std::vector<double> want(rows * c_count, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto x = matrix.subspan(r * width, width);
    double* w = want.data() + r * c_count;
    for (const DecisionTree& tree : trees) {
      const auto p = tree.predict_proba_ref(x);
      for (std::size_t c = 0; c < c_count; ++c) w[c] += p[c];
    }
    for (std::size_t c = 0; c < c_count; ++c) w[c] *= inv;
  }

  std::vector<double> got(c_count);
  for (std::size_t r = 0; r < rows; ++r) {
    cf.predict_proba_into(matrix.subspan(r * width, width), got);
    for (std::size_t c = 0; c < c_count; ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want[r * c_count + c]),
                std::bit_cast<std::uint64_t>(got[c]))
          << "row " << r << " class " << c;
    }
  }

  // Batch path, including the tile remainder and the threaded split.
  std::vector<double> got_b(rows * c_count);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cf.predict_proba_batch(matrix, got_b, threads);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
                std::bit_cast<std::uint64_t>(got_b[i]))
          << "flat index " << i << " threads " << threads;
    }
  }
}

TEST(CompiledForest, MatchesTreeWalkOnRandomizedForests) {
  // Single-row prediction walks trees in lockstep groups of eight, then
  // the remainder one at a time: cover forests smaller than, equal to and
  // just past one group, plus two groups and a remainder.
  for (const std::size_t num_trees : {1u, 7u, 8u, 9u, 20u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << num_trees << " trees, seed "
                                      << seed);
      const auto train = make_problem(300, seed);
      // 517 finite rows, not a tile multiple, then the non-finite ones.
      const auto probe = with_nonfinite_rows(
          flatten(make_problem(517, seed + 100)), train.num_features());
      const auto trees = fit_trees(train, num_trees, seed);
      const auto cf = CompiledForest::compile(trees);
      EXPECT_GT(cf.num_nodes(), num_trees);
      expect_matches_descent(trees, cf, probe);
    }
  }
}

TEST(CompiledForest, NaNFeaturesStayInBounds) {
  // A finite feed can still produce NaN: byte counts near DBL_MAX
  // overflow a rate to inf, and inf - inf in a median interpolation is
  // NaN. NaN goes right at every split, leaves hold their position for
  // any input while deeper trees of their lockstep group keep walking, so
  // descent stays inside the node arrays and lands where per-tree descent
  // does, for every grouping.
  const auto train = make_problem(300, 5);
  const std::size_t width = train.num_features();
  // Row f has NaN in feature f only; the last row is all NaN.
  std::vector<double> matrix((width + 1) * width, 0.5);
  for (std::size_t f = 0; f < width; ++f) matrix[f * width + f] = kNaN;
  std::fill(matrix.end() - static_cast<std::ptrdiff_t>(width), matrix.end(),
            kNaN);
  for (const std::size_t num_trees : {1u, 7u, 8u, 9u, 20u}) {
    SCOPED_TRACE(testing::Message() << num_trees << " trees");
    const auto trees = fit_trees(train, num_trees, 5);
    expect_matches_descent(trees, CompiledForest::compile(trees), matrix);
  }
}

TEST(CompiledForest, MatchesTreeWalkOnHistogramTrainedForest) {
  // Class weights make leaf distributions uneven fractions, and
  // max_features 0 searches every feature at each split.
  const auto train = make_problem(400, 7);
  DecisionTreeParams p;
  p.class_weights = {3.0, 1.0, 1.0};
  const auto trees = fit_trees(train, 16, 7, p);
  expect_matches_descent(
      trees, CompiledForest::compile(trees),
      with_nonfinite_rows(flatten(make_problem(200, 8)), train.num_features()));
}

TEST(CompiledForest, SingleNodeTrees) {
  // All rows share one label: every tree is a root-only leaf, descent
  // depth zero.
  Dataset d({"f0", "f1"}, 2);
  for (int i = 0; i < 50; ++i) {
    d.add_row({static_cast<double>(i), static_cast<double>(-i)}, 1);
  }
  const auto trees = fit_trees(d, 5, 3);
  const auto cf = CompiledForest::compile(trees);
  EXPECT_EQ(cf.num_nodes(), trees.size());  // one node per tree
  expect_matches_descent(trees, cf, with_nonfinite_rows(flatten(d), 2));
}

TEST(CompiledForest, MaxDepthChainTrees) {
  // min_samples_leaf 1 + tiny depth-hungry data: trees degenerate toward
  // one-sided chains at the depth cap.
  Dataset d({"f0"}, 2);
  for (int i = 0; i < 64; ++i) {
    d.add_row({static_cast<double>(i)}, i % 2);
  }
  DecisionTreeParams p;
  p.max_depth = 40;
  const auto trees = fit_trees(d, 8, 11, p);
  expect_matches_descent(trees, CompiledForest::compile(trees),
                         with_nonfinite_rows(flatten(d), 1));
}

TEST(CompiledForest, SaveLoadRoundTrip) {
  const auto train = make_problem(250, 19);
  const auto trees = fit_trees(train, 12, 19);
  const auto cf = CompiledForest::compile(trees);

  std::stringstream ss;
  cf.save(ss);
  const std::string first = ss.str();
  const auto loaded = CompiledForest::load(ss);
  expect_matches_descent(
      trees, loaded,
      with_nonfinite_rows(flatten(make_problem(120, 20)), train.num_features()));

  // Serialization is a fixed point: saving the loaded forest reproduces
  // the file byte for byte.
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(first, again.str());
}

TEST(CompiledForest, PredictBeforeCompileFails) {
  CompiledForest cf;
  EXPECT_FALSE(cf.compiled());
  std::vector<double> x(3, 0.0), out(3, 0.0);
  EXPECT_THROW(cf.predict_proba_into(x, out), ContractViolation);
}

TEST(CompiledForest, CompileRejectsUnfittedOrMixedWidthTrees) {
  // A tree trained on wider rows could index past a served row.
  EXPECT_THROW(CompiledForest::compile({}), ContractViolation);
  const std::vector<DecisionTree> unfitted(1);
  EXPECT_THROW(CompiledForest::compile(unfitted), ContractViolation);
  auto mixed = fit_trees(make_problem(100, 1), 2, 1);
  mixed.push_back(fit_trees(make_problem(100, 2, 7), 1, 2).front());
  EXPECT_THROW(CompiledForest::compile(mixed), ContractViolation);
}

TEST(CompiledForestLoad, RejectsMalformedInput) {
  const auto reject = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW(CompiledForest::load(is), ParseError) << text;
  };
  reject("");
  reject("droppkt-rf v1\n");
  // Header only, truncated dimensions.
  reject("droppkt-cf v1\n");
  // Zero trees.
  reject("droppkt-cf v1\n2 1 0 1 2\n");
  // Root out of range.
  reject("droppkt-cf v1\n2 1 1 1 2\n5\n-1 0 0\n0.5 0.5\n");
  // Internal node pointing backwards (would loop).
  reject("droppkt-cf v1\n2 1 1 3 2\n0\n0 1.5 0\n-1 0 0\n-1 0 0\n0.5 0.5\n");
  // Leaf offset not a multiple of num_classes.
  reject("droppkt-cf v1\n2 1 1 1 2\n0\n-1 0 1\n0.5 0.5\n");
  // Leaf offset past the prob pool.
  reject("droppkt-cf v1\n2 1 1 1 2\n0\n-1 0 2\n0.5 0.5\n");
  // Feature index out of range.
  reject(
      "droppkt-cf v1\n2 1 1 3 2\n0\n7 1.5 1\n-1 0 0\n-1 0 0\n0.5 0.5\n");
  // Non-finite threshold.
  reject(
      "droppkt-cf v1\n2 1 1 3 2\n0\nnan 1.5 1\n-1 0 0\n-1 0 0\n0.5 0.5\n");
  // Two parents claiming the same children.
  reject(
      "droppkt-cf v1\n2 1 1 5 2\n0\n0 1.0 1\n0 2.0 3\n0 3.0 3\n-1 0 0\n"
      "-1 0 0\n0.5 0.5\n");
  // Negative leaf probability.
  reject("droppkt-cf v1\n2 1 1 1 2\n0\n-1 0 0\n-0.5 0.5\n");
  // Truncated probability pool.
  reject("droppkt-cf v1\n2 1 1 1 2\n0\n-1 0 0\n0.5\n");
}

TEST(CompiledForestLoad, AcceptsMinimalValidFile) {
  // One tree: root splits on f0 at 1.5, two leaves.
  std::istringstream is(
      "droppkt-cf v1\n2 1 1 3 4\n0\n0 1.5 1\n-1 0 0\n-1 0 2\n"
      "1 0\n0 1\n");
  const auto cf = CompiledForest::load(is);
  EXPECT_EQ(cf.num_trees(), 1u);
  EXPECT_EQ(cf.num_nodes(), 3u);
  const std::vector<double> low{1.0}, high{2.0};
  std::vector<double> out(2);
  cf.predict_proba_into(low, out);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 0.0);
  cf.predict_proba_into(high, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 1.0);
}

}  // namespace
}  // namespace droppkt::ml
