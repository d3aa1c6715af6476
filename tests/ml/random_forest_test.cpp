#include "ml/random_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {
namespace {

/// Noisy two-informative-feature problem.
Dataset make_problem(std::size_t n, std::uint64_t seed) {
  Dataset d({"x0", "x1", "noise0", "noise1"}, 3);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, 2));
    const double x0 = label + rng.normal(0.0, 0.35);
    const double x1 = -label + rng.normal(0.0, 0.35);
    d.add_row({x0, x1, rng.normal(), rng.normal()}, label);
  }
  return d;
}

TEST(RandomForest, LearnsNoisyProblem) {
  const auto train = make_problem(400, 1);
  const auto test = make_problem(200, 2);
  RandomForestParams p;
  p.num_trees = 50;
  RandomForest rf(p);
  rf.fit(train);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += rf.predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.85);
}

TEST(RandomForest, DeterministicGivenSeed) {
  const auto d = make_problem(150, 3);
  RandomForestParams p;
  p.num_trees = 20;
  p.seed = 99;
  RandomForest a(p), b(p);
  a.fit(d);
  b.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(a.predict(d.row(i)), b.predict(d.row(i)));
  }
}

TEST(RandomForest, DifferentSeedsDifferentForests) {
  const auto d = make_problem(150, 4);
  RandomForestParams pa, pb;
  pa.seed = 1;
  pb.seed = 2;
  pa.num_trees = pb.num_trees = 10;
  RandomForest a(pa), b(pb);
  a.fit(d);
  b.fit(d);
  const auto ia = a.feature_importances();
  const auto ib = b.feature_importances();
  bool any_diff = false;
  for (std::size_t f = 0; f < ia.size(); ++f) {
    if (std::abs(ia[f] - ib[f]) > 1e-12) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomForest, ProbaSumsToOneAndArgmaxMatchesPredict) {
  const auto d = make_problem(200, 5);
  RandomForest rf({.num_trees = 30, .max_depth = 24, .min_samples_leaf = 1,
                   .max_features = 0, .seed = 42, .class_weights = {},
                   .num_threads = 0});
  rf.fit(d);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto proba = rf.predict_proba(d.row(i));
    double sum = 0.0;
    for (double p : proba) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    const int argmax = static_cast<int>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
    EXPECT_EQ(argmax, rf.predict(d.row(i)));
  }
}

TEST(RandomForest, ImportancesNormalizedAndInformative) {
  const auto d = make_problem(400, 6);
  RandomForest rf;
  rf.fit(d);
  const auto imp = rf.feature_importances();
  ASSERT_EQ(imp.size(), 4u);
  double sum = 0.0;
  for (double v : imp) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Informative features dominate the noise features.
  EXPECT_GT(imp[0] + imp[1], 0.7);
}

TEST(RandomForest, RankedImportancesSortedDescending) {
  const auto d = make_problem(200, 7);
  RandomForest rf;
  rf.fit(d);
  const auto ranked = rf.ranked_importances();
  ASSERT_EQ(ranked.size(), 4u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].second, ranked[i].second);
  }
  EXPECT_TRUE(ranked[0].first == "x0" || ranked[0].first == "x1");
}

TEST(RandomForest, MoreTreesNoWorse) {
  const auto train = make_problem(300, 9);
  const auto test = make_problem(300, 10);
  auto eval = [&](std::size_t n_trees) {
    RandomForestParams p;
    p.num_trees = n_trees;
    p.seed = 5;
    RandomForest rf(p);
    rf.fit(train);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      correct += rf.predict(test.row(i)) == test.label(i);
    }
    return static_cast<double>(correct) / test.size();
  };
  EXPECT_GE(eval(60) + 0.03, eval(3));  // allow small noise
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest rf;
  const std::vector<double> x{1.0};
  EXPECT_THROW(rf.predict(x), droppkt::ContractViolation);
  EXPECT_THROW(rf.feature_importances(), droppkt::ContractViolation);
}

TEST(RandomForest, ValidatesParams) {
  RandomForestParams p;
  p.num_trees = 0;
  EXPECT_THROW(RandomForest{p}, droppkt::ContractViolation);
}

TEST(RandomForest, TooFewRowsThrows) {
  Dataset d({"x"}, 2);
  d.add_row({0.0}, 0);
  RandomForest rf;
  EXPECT_THROW(rf.fit(d), droppkt::ContractViolation);
}

TEST(RandomForest, RefitReplacesModel) {
  auto d1 = make_problem(100, 11);
  Dataset d2({"x0", "x1", "noise0", "noise1"}, 3);
  for (int i = 0; i < 50; ++i) {
    d2.add_row({0.0, 0.0, 0.0, 0.0}, 2);
    d2.add_row({1.0, 1.0, 0.0, 0.0}, 2);
  }
  RandomForest rf({.num_trees = 10, .max_depth = 8, .min_samples_leaf = 1,
                   .max_features = 0, .seed = 1, .class_weights = {},
                   .num_threads = 0});
  rf.fit(d1);
  rf.fit(d2);  // all class 2 now
  EXPECT_EQ(rf.predict(d2.row(0)), 2);
}

}  // namespace
}  // namespace droppkt::ml
