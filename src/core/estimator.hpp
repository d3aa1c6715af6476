// QoEEstimator: the library's primary public API.
//
// Train on labelled sessions (simulated here; proxy logs + ground truth in
// a deployment), then estimate categorical QoE for new sessions straight
// from their TLS transaction logs.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/feature_accumulator.hpp"
#include "core/qoe_labels.hpp"
#include "core/tls_features.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/random_forest.hpp"

namespace droppkt::core {

/// Configuration of a QoeEstimator.
struct EstimatorConfig {
  QoeTarget target = QoeTarget::kCombined;
  TlsFeatureConfig features;
  ml::RandomForestParams forest;
};

/// End-to-end estimator: TLS log -> 38 features -> Random Forest -> class.
///
/// The estimator holds only a ml::CompiledForest: training fits a
/// tree-walk forest, compiles it, keeps its importances and drops it, and
/// loading reads the compiled form straight from the model file. Every
/// predict* method serves from the flat arrays, byte-identical to voting
/// the tree-walk forest directly.
class QoeEstimator {
 public:
  using Config = EstimatorConfig;

  explicit QoeEstimator(Config config = {});

  /// Train on labelled sessions. Throws if `sessions` is empty.
  void train(const LabeledDataset& sessions);

  /// Train directly on (TLS log, class label) pairs — the deployment path.
  void train_raw(const std::vector<std::pair<trace::TlsLog, int>>& labelled);

  bool trained() const { return compiled_.compiled(); }
  const Config& config() const { return config_; }

  /// Predicted class for a session (0 = worst, 2 = best).
  int predict(const trace::TlsLog& session) const;

  /// Human-readable class name for a prediction on this target.
  const std::string& class_name(int cls) const;

  /// Per-class probabilities.
  std::vector<double> predict_proba(const trace::TlsLog& session) const;

  /// Width of the feature vector this estimator consumes.
  std::size_t feature_count() const {
    return tls_feature_count(config_.features);
  }

  /// A fresh accumulator configured to feed this estimator — streaming
  /// callers hold one per client and snapshot it into the span APIs.
  TlsFeatureAccumulator make_accumulator() const {
    return TlsFeatureAccumulator(config_.features);
  }

  /// Predicted class from an already-extracted feature vector (size
  /// feature_count()). No allocation beyond the forest's per-row scratch.
  int predict_into(std::span<const double> features,
                   std::span<double> proba_scratch) const;

  /// Per-class probabilities from an already-extracted feature vector
  /// into `out` (size kNumQoeClasses). Zero allocation.
  void predict_proba_into(std::span<const double> features,
                          std::span<double> out) const;

  /// Classify an accumulator's live state: snapshot into `feature_scratch`
  /// (size feature_count()) and vote. The zero-allocation streaming path —
  /// bit-identical to predict() over the same transactions, mid-session
  /// or complete.
  int predict_into(const TlsFeatureAccumulator& acc,
                   std::span<double> feature_scratch,
                   std::span<double> proba_scratch) const;

  /// Classify many sessions in one pass — the monitoring-node hot path.
  /// Feature extraction and forest voting are spread over `num_threads`
  /// workers (0 = hardware concurrency) and the forest votes accumulate
  /// into one flat buffer, so no per-session/per-tree vectors are
  /// allocated. Predictions are identical for any thread count.
  std::vector<int> predict_batch(std::span<const trace::TlsLog> sessions,
                                 std::size_t num_threads = 0) const;

  /// Batch probabilities: `out` must hold sessions.size() x kNumQoeClasses
  /// doubles (row-major, one row per session).
  void predict_proba_batch(std::span<const trace::TlsLog> sessions,
                           std::span<double> out,
                           std::size_t num_threads = 0) const;

  /// Forest feature importances paired with feature names, descending.
  /// Only a trained estimator has them: the model file does not carry
  /// them, so a loaded estimator throws ContractViolation.
  std::vector<std::pair<std::string, double>> feature_importances() const;

  /// Persist the trained estimator so monitoring nodes can load it
  /// without the training corpus. Format: a "droppkt-estimator v2" line,
  /// the target, the interval ends (count first, max_digits10), then the
  /// ml::CompiledForest::save body. extended_stats is not persisted, so
  /// such an estimator cannot be saved.
  void save(std::ostream& os) const;
  /// Rebuild from `save` output. The stream is operator-supplied input:
  /// throws droppkt::ParseError on anything malformed, including interval
  /// ends that are not finite and > 0 and a forest whose width or class
  /// count disagrees with the envelope.
  static QoeEstimator load(std::istream& is);
  void save_file(const std::string& path) const;
  static QoeEstimator load_file(const std::string& path);

  /// Count every prediction (single-row and batch rows alike) into
  /// `predictions` — typically registry.counter("ml.predictions").
  /// nullptr unbinds. Survives retraining: the binding is re-forwarded to
  /// each recompiled forest. Setup-phase, like all telemetry binding; the
  /// predict paths themselves stay const and thread-safe.
  void bind_telemetry(telemetry::Counter* predictions);

 private:
  Config config_;
  ml::CompiledForest compiled_;  // replaced by every train/load
  /// Ranked importances of the last trained forest; empty when loaded.
  std::vector<std::pair<std::string, double>> importances_;
  /// Borrowed prediction counter re-applied at every compile site.
  telemetry::Counter* predictions_ctr_ = nullptr;
};

}  // namespace droppkt::core
