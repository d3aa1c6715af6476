#include <gtest/gtest.h>

#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {
namespace {

/// Overlapping two-class problem: class 1 is the rare minority.
Dataset imbalanced(std::size_t n, std::uint64_t seed) {
  Dataset d({"x"}, 2);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool minority = rng.bernoulli(0.2);
    d.add_row({(minority ? 1.0 : 0.0) + rng.normal(0.0, 0.8)},
              minority ? 1 : 0);
  }
  return d;
}

double minority_recall(const RandomForest& rf, const Dataset& test) {
  std::size_t tp = 0, fn = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (test.label(i) != 1) continue;
    if (rf.predict(test.row(i)) == 1) ++tp;
    else ++fn;
  }
  return static_cast<double>(tp) / std::max<std::size_t>(1, tp + fn);
}

TEST(ClassWeights, UpWeightingRaisesMinorityRecall) {
  const auto train = imbalanced(800, 1);
  const auto test = imbalanced(400, 2);

  RandomForestParams plain;
  plain.min_samples_leaf = 10;
  plain.seed = 7;
  RandomForest rf_plain(plain);
  rf_plain.fit(train);

  RandomForestParams weighted = plain;
  weighted.class_weights = {1.0, 6.0};
  RandomForest rf_weighted(weighted);
  rf_weighted.fit(train);

  EXPECT_GT(minority_recall(rf_weighted, test),
            minority_recall(rf_plain, test) + 0.1);
}

TEST(ClassWeights, UniformWeightsMatchUnweighted) {
  const auto d = imbalanced(300, 3);
  RandomForestParams a;
  a.min_samples_leaf = 5;
  a.seed = 4;
  RandomForestParams b = a;
  b.class_weights = {1.0, 1.0};
  RandomForest rf_a(a), rf_b(b);
  rf_a.fit(d);
  rf_b.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(rf_a.predict(d.row(i)), rf_b.predict(d.row(i)));
  }
}

TEST(ClassWeights, MissingWeightsDefaultToOne) {
  // Fewer weights than classes: the remainder default to 1.
  Dataset d({"x"}, 3);
  util::Rng rng(5);
  for (int i = 0; i < 90; ++i) {
    const int label = i % 3;
    d.add_row({label + rng.normal(0.0, 0.2)}, label);
  }
  DecisionTreeParams p;
  p.class_weights = {2.0};  // only class 0 specified
  DecisionTree tree(p);
  EXPECT_NO_THROW(tree.fit(d));
  const std::vector<double> x0{0.0}, x2{2.0};
  EXPECT_EQ(tree.predict(x0), 0);
  EXPECT_EQ(tree.predict(x2), 2);
}

TEST(ClassWeights, RejectsNonPositive) {
  DecisionTreeParams p;
  p.class_weights = {1.0, 0.0};
  EXPECT_THROW(DecisionTree{p}, droppkt::ContractViolation);
  p.class_weights = {-1.0};
  EXPECT_THROW(DecisionTree{p}, droppkt::ContractViolation);
}

TEST(ClassWeights, LeafProbabilitiesAreWeighted) {
  // One leaf with 3 majority and 1 minority sample, minority weight 3:
  // weighted probabilities are 50/50.
  Dataset d({"x"}, 2);
  d.add_row({1.0}, 0);
  d.add_row({1.0}, 0);
  d.add_row({1.0}, 0);
  d.add_row({1.0}, 1);
  DecisionTreeParams p;
  p.class_weights = {1.0, 3.0};
  DecisionTree tree(p);
  tree.fit(d);
  const auto probs = tree.predict_proba(d.row(0));
  EXPECT_NEAR(probs[0], 0.5, 1e-9);
  EXPECT_NEAR(probs[1], 0.5, 1e-9);
}

}  // namespace
}  // namespace droppkt::ml
