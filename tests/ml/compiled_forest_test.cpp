// CompiledForest: equivalence with the tree-walk forest (byte-identical
// probabilities), degenerate shapes, serialization round-trip, and
// hostile-input hardening of load().
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {
namespace {

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

void expect_equivalent(const RandomForest& rf, const CompiledForest& cf,
                       const Dataset& data) {
  ASSERT_EQ(cf.num_trees(), rf.num_trees());
  ASSERT_EQ(cf.num_classes(), rf.num_classes());
  ASSERT_EQ(cf.num_features(), rf.num_features());
  const auto c_count = static_cast<std::size_t>(rf.num_classes());

  // Row-at-a-time equivalence must be exact (same doubles, not close).
  std::vector<double> want(c_count), got(c_count);
  for (std::size_t r = 0; r < data.size(); ++r) {
    rf.predict_proba_into(data.row(r), want);
    cf.predict_proba_into(data.row(r), got);
    for (std::size_t c = 0; c < c_count; ++c) {
      ASSERT_EQ(want[c], got[c]) << "row " << r << " class " << c;
    }
  }

  // Batch path, including the tile remainder and the threaded split.
  std::vector<double> want_b(data.size() * c_count);
  std::vector<double> got_b(data.size() * c_count);
  rf.predict_proba_batch(data, want_b, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cf.predict_proba_batch(data, got_b, threads);
    for (std::size_t i = 0; i < want_b.size(); ++i) {
      ASSERT_EQ(want_b[i], got_b[i]) << "flat index " << i << " threads "
                                     << threads;
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
      const auto probe = make_problem(517, seed + 100);  // not a tile multiple
      RandomForestParams p;
      p.num_trees = num_trees;
      p.seed = seed;
      p.num_threads = 1;
      RandomForest rf(p);
      rf.fit(train);
      const auto cf = CompiledForest::compile(rf);
      EXPECT_GT(cf.num_nodes(), rf.num_trees());
      expect_equivalent(rf, cf, probe);
    }
  }
}

TEST(CompiledForest, NaNFeaturesStayInBounds) {
  // NaN breaks the input contract, yet a finite feed can still produce
  // one: byte counts near DBL_MAX overflow a rate to inf, and inf - inf
  // in a median interpolation is NaN. Descent must stay inside the node
  // arrays anyway, for every lockstep grouping: each leaf must hold its
  // position for any input while deeper trees of its group keep walking.
  // The distribution itself is unspecified, so only its shape is checked.
  const auto train = make_problem(300, 5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t num_trees : {1u, 7u, 8u, 9u, 20u}) {
    RandomForestParams p;
    p.num_trees = num_trees;
    p.seed = 5;
    p.num_threads = 1;
    RandomForest rf(p);
    rf.fit(train);
    const auto cf = CompiledForest::compile(rf);
    const auto c_count = static_cast<std::size_t>(rf.num_classes());
    const std::size_t width = train.num_features();
    // Row f has NaN in feature f only; the last row is all NaN.
    std::vector<double> matrix((width + 1) * width, 0.5);
    for (std::size_t f = 0; f < width; ++f) matrix[f * width + f] = nan;
    std::fill(matrix.end() - static_cast<std::ptrdiff_t>(width),
              matrix.end(), nan);
    std::vector<double> batch(matrix.size() / width * c_count);
    cf.predict_proba_batch(matrix, batch, 1);
    std::vector<double> single(c_count);
    for (std::size_t r = 0; r <= width; ++r) {
      cf.predict_proba_into({matrix.data() + r * width, width}, single);
      for (const double* proba : {single.data(), batch.data() + r * c_count}) {
        double sum = 0.0;
        for (std::size_t c = 0; c < c_count; ++c) {
          EXPECT_GE(proba[c], 0.0);
          sum += proba[c];
        }
        EXPECT_NEAR(sum, 1.0, 1e-9) << num_trees << " trees, row " << r;
      }
    }
  }
}

TEST(CompiledForest, MatchesTreeWalkOnHistogramTrainedForest) {
  const auto train = make_problem(400, 7);
  const auto probe = make_problem(200, 8);
  RandomForestParams p;
  p.num_trees = 16;
  p.seed = 7;
  p.split_method = SplitMethod::kHistogram;
  p.num_threads = 1;
  RandomForest rf(p);
  rf.fit(train);
  expect_equivalent(rf, CompiledForest::compile(rf), probe);
}

TEST(CompiledForest, SingleNodeTrees) {
  // All rows share one label: every tree is a root-only leaf, descent
  // depth zero.
  Dataset d({"f0", "f1"}, 2);
  for (int i = 0; i < 50; ++i) {
    d.add_row({static_cast<double>(i), static_cast<double>(-i)}, 1);
  }
  RandomForestParams p;
  p.num_trees = 5;
  p.seed = 3;
  p.num_threads = 1;
  RandomForest rf(p);
  rf.fit(d);
  const auto cf = CompiledForest::compile(rf);
  EXPECT_EQ(cf.num_nodes(), rf.num_trees());  // one node per tree
  expect_equivalent(rf, cf, d);
}

TEST(CompiledForest, MaxDepthChainTrees) {
  // min_samples_leaf 1 + tiny depth-hungry data: trees degenerate toward
  // one-sided chains at the depth cap.
  Dataset d({"f0"}, 2);
  for (int i = 0; i < 64; ++i) {
    d.add_row({static_cast<double>(i)}, i % 2);
  }
  RandomForestParams p;
  p.num_trees = 8;
  p.max_depth = 40;
  p.seed = 11;
  p.num_threads = 1;
  RandomForest rf(p);
  rf.fit(d);
  expect_equivalent(rf, CompiledForest::compile(rf), d);
}

TEST(CompiledForest, SaveLoadRoundTrip) {
  const auto train = make_problem(250, 19);
  const auto probe = make_problem(120, 20);
  RandomForestParams p;
  p.num_trees = 12;
  p.seed = 19;
  p.num_threads = 1;
  RandomForest rf(p);
  rf.fit(train);
  const auto cf = CompiledForest::compile(rf);

  std::stringstream ss;
  cf.save(ss);
  const std::string first = ss.str();
  const auto loaded = CompiledForest::load(ss);
  expect_equivalent(rf, loaded, probe);

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
