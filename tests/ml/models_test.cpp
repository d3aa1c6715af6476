// Shared behavioural tests for the comparison models (k-NN, linear SVM,
// gradient boosting, MLP) plus model-specific checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>

#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/preprocess.hpp"
#include "ml/svm.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::ml {
namespace {

Dataset gaussian_blobs(std::size_t n, std::uint64_t seed, double spread = 0.4) {
  Dataset d({"x", "y"}, 3);
  util::Rng rng(seed);
  const double cx[3] = {0.0, 3.0, 0.0};
  const double cy[3] = {0.0, 0.0, 3.0};
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, 2));
    d.add_row({cx[label] + rng.normal(0.0, spread),
               cy[label] + rng.normal(0.0, spread)},
              label);
  }
  return d;
}

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<Classifier>()> make;
};

// Print a case as its model name, so the parameter shown in test names is
// stable rather than a byte dump of the string and function pointers.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class AllModels : public ::testing::TestWithParam<ModelCase> {};

TEST_P(AllModels, LearnsGaussianBlobs) {
  const auto train = gaussian_blobs(300, 1);
  const auto test = gaussian_blobs(200, 2);
  auto model = GetParam().make();
  model->fit(train);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += model->predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.9) << GetParam().name;
}

TEST_P(AllModels, ProbaIsDistribution) {
  const auto train = gaussian_blobs(150, 3);
  auto model = GetParam().make();
  model->fit(train);
  const auto proba = model->predict_proba(train.row(0));
  double sum = 0.0;
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-9);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_P(AllModels, PredictAllMatchesPredict) {
  const auto train = gaussian_blobs(100, 4);
  auto model = GetParam().make();
  model->fit(train);
  const auto preds = model->predict_all(train);
  ASSERT_EQ(preds.size(), train.size());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(preds[i], model->predict(train.row(i)));
  }
}

TEST_P(AllModels, DeterministicAcrossRuns) {
  const auto train = gaussian_blobs(120, 5);
  auto a = GetParam().make();
  auto b = GetParam().make();
  a->fit(train);
  b->fit(train);
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(a->predict(train.row(i)), b->predict(train.row(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, AllModels,
    ::testing::Values(
        ModelCase{"knn", [] { return std::unique_ptr<Classifier>(
                                  std::make_unique<KnnClassifier>()); }},
        ModelCase{"svm", [] { return std::unique_ptr<Classifier>(
                                  std::make_unique<LinearSvm>()); }},
        ModelCase{"gbt", [] { return std::unique_ptr<Classifier>(
                                  std::make_unique<GradientBoosting>()); }},
        ModelCase{"mlp", [] { return std::unique_ptr<Classifier>(
                                  std::make_unique<MlpClassifier>()); }}));

// ---- Standardizer --------------------------------------------------------

TEST(Standardizer, ZeroMeanUnitVariance) {
  const auto d = gaussian_blobs(500, 6);
  Standardizer s;
  s.fit(d);
  const auto t = s.transform(d);
  for (std::size_t f = 0; f < t.num_features(); ++f) {
    double sum = 0.0, ss = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      sum += t.row(i)[f];
      ss += t.row(i)[f] * t.row(i)[f];
    }
    const double mean = sum / t.size();
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(ss / t.size() - mean * mean, 1.0, 1e-6);
  }
}

TEST(Standardizer, ConstantFeaturePassesThrough) {
  Dataset d({"c"}, 2);
  d.add_row({5.0}, 0);
  d.add_row({5.0}, 1);
  Standardizer s;
  s.fit(d);
  EXPECT_EQ(s.transform(d.row(0))[0], 0.0);  // (5-5)/1
}

TEST(Standardizer, TransformBeforeFitThrows) {
  Standardizer s;
  const std::vector<double> x{1.0};
  EXPECT_THROW(s.transform(x), droppkt::ContractViolation);
}

TEST(Standardizer, WidthMismatchThrows) {
  const auto d = gaussian_blobs(10, 7);
  Standardizer s;
  s.fit(d);
  const std::vector<double> narrow{1.0};
  EXPECT_THROW(s.transform(narrow), droppkt::ContractViolation);
}

// ---- k-NN specifics ------------------------------------------------------

TEST(Knn, KOneMemorizesTraining) {
  const auto d = gaussian_blobs(100, 8);
  KnnClassifier knn({.k = 1});
  knn.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(knn.predict(d.row(i)), d.label(i));
  }
}

TEST(Knn, ValidatesK) {
  EXPECT_THROW(KnnClassifier({.k = 0}), droppkt::ContractViolation);
}

TEST(Knn, KLargerThanTrainingSetFallsBackGracefully) {
  Dataset d({"x", "y"}, 2);
  d.add_row({0.0, 0.0}, 0);
  d.add_row({1.0, 1.0}, 1);
  KnnClassifier knn({.k = 50});
  knn.fit(d);
  const std::vector<double> q{0.1, 0.1};
  EXPECT_EQ(knn.predict(q), 0);  // distance weighting favours the close one
}

// ---- SVM specifics -------------------------------------------------------

TEST(Svm, DecisionFunctionArgmaxMatchesPredict) {
  const auto d = gaussian_blobs(200, 9);
  LinearSvm svm;
  svm.fit(d);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto m = svm.decision_function(d.row(i));
    const int argmax =
        static_cast<int>(std::max_element(m.begin(), m.end()) - m.begin());
    EXPECT_EQ(argmax, svm.predict(d.row(i)));
  }
}

TEST(Svm, ValidatesParams) {
  LinearSvmParams p;
  p.learning_rate = 0.0;
  EXPECT_THROW(LinearSvm{p}, droppkt::ContractViolation);
  p = {};
  p.epochs = 0;
  EXPECT_THROW(LinearSvm{p}, droppkt::ContractViolation);
}

// ---- Gradient boosting specifics ------------------------------------------

TEST(Gbt, RegressionTreeFitsPiecewiseConstant) {
  Dataset d({"x"}, 2);  // labels unused by the regression tree
  std::vector<double> targets;
  for (int i = 0; i < 20; ++i) {
    d.add_row({static_cast<double>(i)}, 0);
    targets.push_back(i < 10 ? -1.0 : 1.0);
  }
  std::vector<std::size_t> idx(20);
  for (std::size_t i = 0; i < 20; ++i) idx[i] = i;
  RegressionTree tree(3, 1);
  tree.fit(d, targets, idx);
  EXPECT_NEAR(tree.predict(d.row(0)), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict(d.row(19)), 1.0, 1e-9);
}

TEST(Gbt, RegressionTreeLeafValueOverride) {
  Dataset d({"x"}, 2);
  std::vector<double> targets{0.0, 1.0};
  d.add_row({0.0}, 0);
  d.add_row({1.0}, 0);
  RegressionTree tree(2, 1);
  tree.fit(d, targets, std::vector<std::size_t>{0, 1});
  const auto leaf = tree.leaf_id(d.row(0));
  tree.set_leaf_value(leaf, 42.0);
  EXPECT_EQ(tree.predict(d.row(0)), 42.0);
  EXPECT_THROW(tree.set_leaf_value(99, 0.0), droppkt::ContractViolation);
}

TEST(Gbt, ValidatesParams) {
  GradientBoostingParams p;
  p.num_rounds = 0;
  EXPECT_THROW(GradientBoosting{p}, droppkt::ContractViolation);
  p = {};
  p.subsample = 0.0;
  EXPECT_THROW(GradientBoosting{p}, droppkt::ContractViolation);
}

TEST(GbtPredict, RejectsWrongFeatureCount) {
  GradientBoosting model;
  model.fit(gaussian_blobs(30, 8));
  const std::vector<double> wrong(5, 0.0);
  EXPECT_THROW(model.predict_proba(wrong), droppkt::ContractViolation);
}

// ---- MLP specifics ---------------------------------------------------------

TEST(Mlp, ValidatesParams) {
  MlpParams p;
  p.hidden_units = 0;
  EXPECT_THROW(MlpClassifier{p}, droppkt::ContractViolation);
  p = {};
  p.batch_size = 0;
  EXPECT_THROW(MlpClassifier{p}, droppkt::ContractViolation);
}

TEST(Mlp, PredictBeforeFitThrows) {
  MlpClassifier mlp;
  const std::vector<double> x{0.0, 0.0};
  EXPECT_THROW(mlp.predict(x), droppkt::ContractViolation);
}

}  // namespace
}  // namespace droppkt::ml
