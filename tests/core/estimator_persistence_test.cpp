#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/estimator.hpp"
#include "util/expect.hpp"

namespace droppkt::core {
namespace {

LabeledDataset small_dataset(std::size_t n = 120, std::uint64_t seed = 1) {
  DatasetConfig cfg;
  cfg.num_sessions = n;
  cfg.seed = seed;
  cfg.trace_pool_size = 40;
  cfg.catalog_size = 20;
  return build_dataset(has::svc1_profile(), cfg);
}

const QoeEstimator& trained_estimator() {
  static const QoeEstimator est = [] {
    QoeEstimator e;
    e.train(small_dataset(100, 6));
    return e;
  }();
  return est;
}

std::string saved_text(const QoeEstimator& est) {
  std::ostringstream os;
  est.save(os);
  return os.str();
}

QoeEstimator load_text(const std::string& text) {
  std::istringstream is(text);
  return QoeEstimator::load(is);
}

/// `text` with its interval line (the third) replaced by `line`.
std::string with_interval_line(const std::string& text,
                               const std::string& line) {
  const std::size_t begin = text.find('\n', text.find('\n') + 1) + 1;
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + line + text.substr(end);
}

TEST(EstimatorPersistence, RoundTripPredictionsIdentical) {
  const auto train = small_dataset(150, 1);
  const auto test = small_dataset(40, 2);
  QoeEstimator est;
  est.train(train);

  const std::string path = ::testing::TempDir() + "/droppkt_est.model";
  est.save_file(path);
  const QoeEstimator back = QoeEstimator::load_file(path);
  EXPECT_TRUE(back.trained());
  for (const auto& s : test) {
    EXPECT_EQ(back.predict(s.record.tls), est.predict(s.record.tls));
  }
  std::remove(path.c_str());
}

TEST(EstimatorPersistence, ConfigSurvives) {
  EstimatorConfig cfg;
  cfg.target = QoeTarget::kRebuffering;
  // 12.3456789 needs all 17 significant digits to come back exactly; at
  // the default stream precision it would reload as 12.3457.
  cfg.features.interval_ends_s = {12.3456789, 90.0, 400.0};
  QoeEstimator est(cfg);
  est.train(small_dataset(100, 3));

  const std::string path = ::testing::TempDir() + "/droppkt_est2.model";
  est.save_file(path);
  const QoeEstimator back = QoeEstimator::load_file(path);
  EXPECT_EQ(back.config().target, QoeTarget::kRebuffering);
  EXPECT_EQ(back.config().features.interval_ends_s,
            cfg.features.interval_ends_s);
  EXPECT_EQ(back.class_name(0), "high");  // rebuffering classes
  std::remove(path.c_str());
}

TEST(EstimatorPersistence, SaveLoadSaveIsByteIdentical) {
  const std::string first = saved_text(trained_estimator());
  EXPECT_EQ(first.rfind("droppkt-estimator v2\n", 0), 0u);
  EXPECT_NE(first.find("\ndroppkt-cf v1\n"), std::string::npos);
  EXPECT_EQ(saved_text(load_text(first)), first);
}

TEST(EstimatorPersistence, LoadedModelClassifiesAccurately) {
  const auto train = small_dataset(200, 4);
  const auto test = small_dataset(80, 5);
  QoeEstimator est;
  est.train(train);
  const std::string path = ::testing::TempDir() + "/droppkt_est3.model";
  est.save_file(path);
  const QoeEstimator back = QoeEstimator::load_file(path);

  std::size_t correct = 0;
  for (const auto& s : test) {
    correct += back.predict(s.record.tls) == s.labels.combined;
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.6);
  std::remove(path.c_str());
}

TEST(EstimatorPersistence, LoadedModelHasNoImportances) {
  const QoeEstimator back = load_text(saved_text(trained_estimator()));
  EXPECT_EQ(trained_estimator().feature_importances().size(), 38u);
  EXPECT_THROW(back.feature_importances(), droppkt::ContractViolation);
}

TEST(EstimatorPersistence, UntrainedSaveThrows) {
  const QoeEstimator est;
  EXPECT_THROW(est.save_file(::testing::TempDir() + "/nope.model"),
               droppkt::ContractViolation);
}

TEST(EstimatorPersistence, ExtendedStatsSaveThrows) {
  // The file does not carry extended_stats, so its wider forest could not
  // be loaded back.
  EstimatorConfig cfg;
  cfg.features.extended_stats = true;
  cfg.forest.num_trees = 4;
  QoeEstimator est(cfg);
  est.train(small_dataset(60, 7));
  std::ostringstream os;
  EXPECT_THROW(est.save(os), droppkt::ContractViolation);
}

TEST(EstimatorPersistence, MissingFileThrows) {
  EXPECT_THROW(QoeEstimator::load_file("/no/such/estimator.model"),
               std::runtime_error);
}

TEST(EstimatorPersistence, GarbageFileThrows) {
  const std::string path = ::testing::TempDir() + "/droppkt_garbage.model";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("definitely not a model\n1 2 3\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(QoeEstimator::load_file(path), droppkt::ParseError);
  std::remove(path.c_str());
}

TEST(EstimatorPersistence, RejectsV1File) {
  // The retired format: a v1 envelope around tree-walk text.
  EXPECT_THROW(load_text("droppkt-estimator v1\n0\n1 30\ndroppkt-rf v1\n"),
               droppkt::ParseError);
}

TEST(EstimatorPersistence, RejectsIntervalEndsNotFiniteAndPositive) {
  const std::string text = saved_text(trained_estimator());
  // Without the load-time check this file loaded, and the first predict
  // threw ContractViolation.
  for (const char* line : {"8 -30 60 120 240 480 720 960 1200",
                           "8 0 60 120 240 480 720 960 1200",
                           "8 1e999 60 120 240 480 720 960 1200"}) {
    SCOPED_TRACE(line);
    EXPECT_THROW(load_text(with_interval_line(text, line)),
                 droppkt::ParseError);
  }
}

TEST(EstimatorPersistence, RejectsForestWidthMismatch) {
  // One interval dropped: the envelope now describes 36 features while
  // the forest splits on 38. Without the load-time check an IngestEngine
  // serving this file aborted on its first session.
  const std::string text = with_interval_line(
      saved_text(trained_estimator()), "7 30 60 120 240 480 720 960");
  EXPECT_THROW(load_text(text), droppkt::ParseError);
}

TEST(EstimatorPersistence, RejectsForestClassCountMismatch) {
  // A one-leaf forest over the 24 features of a one-interval envelope,
  // voting over 2 classes instead of the 3 QoE classes.
  EXPECT_THROW(load_text("droppkt-estimator v2\n0\n1 30\n"
                         "droppkt-cf v1\n2 24 1 1 2\n0\n-1 0 0\n0.5 0.5\n"),
               droppkt::ParseError);
  EXPECT_NO_THROW(load_text("droppkt-estimator v2\n0\n1 30\n"
                            "droppkt-cf v1\n3 24 1 1 3\n0\n-1 0 0\n"
                            "0.25 0.25 0.5\n"));
}

}  // namespace
}  // namespace droppkt::core
