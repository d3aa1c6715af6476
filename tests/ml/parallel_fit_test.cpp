// Determinism and equivalence guarantees of the parallel ML training
// engine: thread count must never change any result, and the compiled
// forest's batch predictor must agree with its one-row counterpart.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ml/compiled_forest.hpp"
#include "ml/cross_validation.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {
namespace {

Dataset make_problem(std::size_t n, std::uint64_t seed) {
  Dataset d({"x0", "x1", "noise0", "noise1", "noise2"}, 3);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, 2));
    d.add_row({label + rng.normal(0.0, 0.4), -label + rng.normal(0.0, 0.4),
               rng.normal(), rng.normal(), rng.normal()},
              label);
  }
  return d;
}

std::string fit_and_save(const Dataset& d, std::size_t num_threads) {
  RandomForestParams p;
  p.num_trees = 24;
  p.seed = 1303;
  p.num_threads = num_threads;
  RandomForest rf(p);
  rf.fit(d);
  // The compiled text holds every split feature, every threshold and leaf
  // probability at max_digits10 and the pre-order child layout.
  std::stringstream ss;
  rf.compiled().save(ss);
  return ss.str();
}

// Every node of a tree in index order: split feature, threshold bits,
// children, and the bits of each leaf probability.
std::string dump_tree(const DecisionTree& tree) {
  std::ostringstream os;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const auto n = tree.node_view(i);
    os << n.feature << ' ' << std::bit_cast<std::uint64_t>(n.threshold) << ' '
       << n.left << ' ' << n.right;
    for (const double p : n.class_probs) {
      os << ' ' << std::bit_cast<std::uint64_t>(p);
    }
    os << '\n';
  }
  return os.str();
}

TEST(ParallelFit, ForestBitIdenticalForAnyThreadCount) {
  const auto d = make_problem(250, 5);
  const std::string m1 = fit_and_save(d, 1);
  const std::string m2 = fit_and_save(d, 2);
  const std::string m8 = fit_and_save(d, 8);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m8);
}

TEST(ParallelFit, ImportancesIdenticalForAnyThreadCount) {
  const auto d = make_problem(200, 6);
  RandomForestParams p;
  p.num_trees = 16;
  p.seed = 7;
  p.num_threads = 1;
  RandomForest seq(p);
  seq.fit(d);
  p.num_threads = 4;
  RandomForest par(p);
  par.fit(d);
  const auto a = seq.feature_importances();
  const auto b = par.feature_importances();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t f = 0; f < a.size(); ++f) EXPECT_EQ(a[f], b[f]);
}

TEST(ParallelFit, CrossValidationIdenticalForAnyThreadCount) {
  const auto d = make_problem(150, 9);
  auto factory = [] {
    RandomForestParams p;
    p.num_trees = 10;
    p.seed = 3;
    p.num_threads = 1;
    return std::unique_ptr<Classifier>(new RandomForest(p));
  };
  const auto seq = cross_validate(d, factory, 5, 42, 1);
  const auto par = cross_validate(d, factory, 5, 42, 4);
  EXPECT_EQ(seq.fold_accuracy, par.fold_accuracy);
  EXPECT_EQ(seq.accuracy(), par.accuracy());
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(seq.pooled.count(a, b), par.pooled.count(a, b));
    }
  }
}

TEST(ParallelFit, ForestBatchPredictMatchesPerRow) {
  const auto train = make_problem(220, 10);
  const auto test = make_problem(90, 11);
  RandomForestParams p;
  p.num_trees = 20;
  p.seed = 5;
  RandomForest rf(p);
  rf.fit(train);
  const CompiledForest& cf = rf.compiled();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<double> proba(test.size() * 3);
    cf.predict_proba_batch(test, proba, threads);
    for (std::size_t i = 0; i < test.size(); ++i) {
      const auto one = rf.predict_proba(test.row(i));
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(proba[i * 3 + c], one[c]);
      }
      const double* row = proba.data() + i * 3;
      EXPECT_EQ(static_cast<int>(std::max_element(row, row + 3) - row),
                rf.predict(test.row(i)));
    }
  }
}

TEST(ParallelFit, ForestFlatMatrixBatchMatchesDatasetBatch) {
  const auto train = make_problem(150, 12);
  const auto test = make_problem(40, 13);
  RandomForest rf({.num_trees = 10, .max_depth = 24, .min_samples_leaf = 1,
                   .max_features = 0, .seed = 2, .class_weights = {},
                   .num_threads = 2});
  rf.fit(train);

  std::vector<double> matrix;
  matrix.reserve(test.size() * test.num_features());
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto r = test.row(i);
    matrix.insert(matrix.end(), r.begin(), r.end());
  }
  std::vector<double> from_matrix(test.size() * 3);
  std::vector<double> from_dataset(test.size() * 3);
  rf.compiled().predict_proba_batch(matrix, from_matrix, 2);
  rf.compiled().predict_proba_batch(test, from_dataset, 1);
  EXPECT_EQ(from_matrix, from_dataset);
}

TEST(ParallelFit, BatchBufferSizeValidated) {
  const auto d = make_problem(50, 14);
  RandomForestParams p;
  p.num_trees = 4;
  RandomForest rf(p);
  rf.fit(d);
  const CompiledForest& cf = rf.compiled();
  std::vector<double> too_small(d.size() * 3 - 1);
  EXPECT_THROW(cf.predict_proba_batch(d, too_small, 1),
               droppkt::ContractViolation);
  std::vector<double> out(3);
  const std::vector<double> one_row(d.row(0).begin(), d.row(0).end());
  std::vector<double> none;
  EXPECT_THROW(cf.predict_proba_batch(std::span<const double>(one_row), none, 1),
               droppkt::ContractViolation);
  std::vector<double> ragged(7);  // not a multiple of feature width
  EXPECT_THROW(cf.predict_proba_batch(std::span<const double>(ragged), out, 1),
               droppkt::ContractViolation);
  Dataset narrow({"x0", "x1"}, 3);
  narrow.add_row({0.0, 0.0}, 0);
  EXPECT_THROW(cf.predict_proba_batch(narrow, out, 1),
               droppkt::ContractViolation);
}

TEST(ParallelFit, TreeProbaRefViewsLeafDistribution) {
  const auto d = make_problem(100, 17);
  DecisionTree tree;
  tree.fit(d);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto ref = tree.predict_proba_ref(d.row(i));
    const auto copy = tree.predict_proba(d.row(i));
    ASSERT_EQ(ref.size(), copy.size());
    for (std::size_t c = 0; c < ref.size(); ++c) EXPECT_EQ(ref[c], copy[c]);
    // Repeated lookups return the same storage, not fresh copies.
    EXPECT_EQ(ref.data(), tree.predict_proba_ref(d.row(i)).data());
  }
}

TEST(ColumnMatrix, SharedAcrossTreesMatchesPerTreeBuild) {
  const auto d = make_problem(120, 19);
  const ColumnMatrix cols(d);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); i += 2) idx.push_back(i);

  DecisionTreeParams p;
  p.seed = 4;
  DecisionTree own(p), shared(p);
  own.fit_on(d, idx);
  shared.fit_on(d, idx, cols);
  EXPECT_EQ(dump_tree(own), dump_tree(shared));
}

}  // namespace
}  // namespace droppkt::ml
