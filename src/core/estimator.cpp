#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>

#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace droppkt::core {

QoeEstimator::QoeEstimator(Config config) : config_(std::move(config)) {}

void QoeEstimator::train(const LabeledDataset& sessions) {
  std::vector<std::pair<trace::TlsLog, int>> labelled;
  labelled.reserve(sessions.size());
  for (const auto& s : sessions) {
    labelled.emplace_back(s.record.tls, s.labels.label_for(config_.target));
  }
  train_raw(labelled);
}

void QoeEstimator::train_raw(
    const std::vector<std::pair<trace::TlsLog, int>>& labelled) {
  DROPPKT_EXPECT(!labelled.empty(), "QoeEstimator: empty training set");
  ml::Dataset data(tls_feature_names(config_.features), kNumQoeClasses);
  data.reserve(labelled.size());
  // One accumulator and one row buffer for the whole corpus instead of a
  // fresh feature vector per session.
  TlsFeatureAccumulator acc(config_.features);
  std::vector<double> row(acc.feature_count());
  for (const auto& [log, label] : labelled) {
    acc.reset();
    for (const auto& t : log) acc.observe(t);
    acc.snapshot_into(row);
    data.add_row(std::span<const double>(row), label);
  }
  ml::RandomForest forest(config_.forest);
  forest.fit(data);
  compiled_ = forest.compiled();
  compiled_.bind_telemetry(predictions_ctr_);
  importances_ = forest.ranked_importances();
}

void QoeEstimator::bind_telemetry(telemetry::Counter* predictions) {
  predictions_ctr_ = predictions;
  compiled_.bind_telemetry(predictions_ctr_);
}

int QoeEstimator::predict(const trace::TlsLog& session) const {
  DROPPKT_EXPECT(trained(), "QoeEstimator: predict before train");
  return compiled_.predict(extract_tls_features(session, config_.features));
}

std::vector<double> QoeEstimator::predict_proba(
    const trace::TlsLog& session) const {
  DROPPKT_EXPECT(trained(), "QoeEstimator: predict before train");
  std::vector<double> proba(static_cast<std::size_t>(kNumQoeClasses));
  compiled_.predict_proba_into(
      extract_tls_features(session, config_.features), proba);
  return proba;
}

int QoeEstimator::predict_into(std::span<const double> features,
                               std::span<double> proba_scratch) const {
  predict_proba_into(features, proba_scratch);
  return static_cast<int>(
      std::max_element(proba_scratch.begin(), proba_scratch.end()) -
      proba_scratch.begin());
}

void QoeEstimator::predict_proba_into(std::span<const double> features,
                                      std::span<double> out) const {
  DROPPKT_EXPECT(trained(), "QoeEstimator: predict before train");
  compiled_.predict_proba_into(features, out);
}

int QoeEstimator::predict_into(const TlsFeatureAccumulator& acc,
                               std::span<double> feature_scratch,
                               std::span<double> proba_scratch) const {
  acc.snapshot_into(feature_scratch);
  return predict_into(feature_scratch, proba_scratch);
}

void QoeEstimator::predict_proba_batch(std::span<const trace::TlsLog> sessions,
                                       std::span<double> out,
                                       std::size_t num_threads) const {
  DROPPKT_EXPECT(trained(), "QoeEstimator: predict before train");
  const std::size_t rows = sessions.size();
  const auto c_count = static_cast<std::size_t>(kNumQoeClasses);
  DROPPKT_EXPECT(out.size() == rows * c_count,
                 "QoeEstimator::predict_proba_batch: bad output buffer size");
  if (rows == 0) return;
  const std::size_t width = feature_count();

  // Extract all feature rows into one flat matrix, in parallel: one
  // accumulator per contiguous chunk snapshots straight into the matrix
  // rows — no per-session feature vector.
  std::vector<double> matrix(rows * width);
  auto extract_chunk = [&](std::size_t lo, std::size_t hi) {
    TlsFeatureAccumulator acc(config_.features);
    for (std::size_t r = lo; r < hi; ++r) {
      acc.reset();
      for (const auto& t : sessions[r]) acc.observe(t);
      acc.snapshot_into(
          std::span<double>(matrix.data() + r * width, width));
    }
  };
  const std::size_t threads =
      std::min(util::ThreadPool::resolve_threads(num_threads), rows);
  if (threads <= 1) {
    extract_chunk(0, rows);
  } else {
    const std::size_t base = rows / threads;
    const std::size_t extra = rows % threads;
    util::ThreadPool pool(threads);
    pool.parallel_for(0, threads, [&](std::size_t c) {
      const std::size_t lo = c * base + std::min(c, extra);
      const std::size_t hi = lo + base + (c < extra ? 1 : 0);
      extract_chunk(lo, hi);
    });
  }

  compiled_.predict_proba_batch(matrix, out, threads);
}

std::vector<int> QoeEstimator::predict_batch(
    std::span<const trace::TlsLog> sessions, std::size_t num_threads) const {
  const auto c_count = static_cast<std::size_t>(kNumQoeClasses);
  std::vector<double> proba(sessions.size() * c_count);
  predict_proba_batch(sessions, proba, num_threads);
  std::vector<int> preds(sessions.size());
  for (std::size_t r = 0; r < sessions.size(); ++r) {
    const double* p = proba.data() + r * c_count;
    preds[r] = static_cast<int>(std::max_element(p, p + c_count) - p);
  }
  return preds;
}

const std::string& QoeEstimator::class_name(int cls) const {
  const auto& names = class_names(config_.target);
  DROPPKT_EXPECT(cls >= 0 && cls < static_cast<int>(names.size()),
                 "QoeEstimator: class out of range");
  return names[static_cast<std::size_t>(cls)];
}

std::vector<std::pair<std::string, double>> QoeEstimator::feature_importances()
    const {
  DROPPKT_EXPECT(trained(), "QoeEstimator: importances before train");
  DROPPKT_EXPECT(!importances_.empty(),
                 "QoeEstimator: a loaded estimator carries no importances");
  return importances_;
}

namespace {

[[noreturn]] void estimator_parse_fail(const std::string& what) {
  throw ParseError("QoeEstimator::load: " + what);
}

}  // namespace

void QoeEstimator::save(std::ostream& os) const {
  DROPPKT_EXPECT(trained(), "QoeEstimator: save before train");
  DROPPKT_EXPECT(!config_.features.extended_stats,
                 "QoeEstimator::save: extended_stats is not persisted");
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "droppkt-estimator v2\n";
  os << static_cast<int>(config_.target) << '\n';
  os << config_.features.interval_ends_s.size();
  for (double end : config_.features.interval_ends_s) os << ' ' << end;
  os << '\n';
  compiled_.save(os);
}

QoeEstimator QoeEstimator::load(std::istream& is) {
  std::string header;
  std::getline(is, header);
  if (header != "droppkt-estimator v2") {
    estimator_parse_fail("unrecognized header '" + header + "'");
  }
  int target = 0;
  std::size_t n_intervals = 0;
  is >> target >> n_intervals;
  if (!is.good() || target < 0 || target > 2 || n_intervals < 1 ||
      n_intervals > 1000) {
    estimator_parse_fail("malformed config");
  }
  Config config;
  config.target = static_cast<QoeTarget>(target);
  config.features.interval_ends_s.resize(n_intervals);
  for (auto& end : config.features.interval_ends_s) {
    is >> end;
    if (is.fail()) estimator_parse_fail("truncated interval list");
    // The accumulator rejects these only when it is built — for a served
    // model, on the first session.
    if (!std::isfinite(end) || end <= 0.0) {
      estimator_parse_fail("interval ends must be finite and > 0");
    }
  }
  is.ignore(1, '\n');

  QoeEstimator estimator(std::move(config));
  estimator.compiled_ = ml::CompiledForest::load(is);
  // The envelope and the forest must agree, or the first prediction
  // would throw from inside a serving thread.
  if (estimator.compiled_.num_features() != estimator.feature_count()) {
    estimator_parse_fail(
        "forest width " + std::to_string(estimator.compiled_.num_features()) +
        " != " + std::to_string(estimator.feature_count()) +
        " features of the interval list");
  }
  if (estimator.compiled_.num_classes() != kNumQoeClasses) {
    estimator_parse_fail("forest has " +
                         std::to_string(estimator.compiled_.num_classes()) +
                         " classes, expected " +
                         std::to_string(kNumQoeClasses));
  }
  return estimator;
}

void QoeEstimator::save_file(const std::string& path) const {
  // Checked before the file is created, so a refused save leaves none.
  DROPPKT_EXPECT(trained(), "QoeEstimator: save before train");
  std::ofstream ofs(path);
  if (!ofs) throw std::runtime_error("QoeEstimator: cannot open " + path);
  save(ofs);
  if (!ofs) throw std::runtime_error("QoeEstimator: write failed " + path);
}

QoeEstimator QoeEstimator::load_file(const std::string& path) {
  std::ifstream ifs(path);
  if (!ifs) throw std::runtime_error("QoeEstimator: cannot open " + path);
  return load(ifs);
}

}  // namespace droppkt::core
