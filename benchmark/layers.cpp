#include "layers.hpp"

#include <algorithm>

#include "harness.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "spans.hpp"

namespace droppkt::benchmark {

namespace {

constexpr std::size_t kMinTransactions = 3;  // core::MonitorConfig default
constexpr int kPasses = 3;  // per-call means are the median over passes

struct Snapshot {
  std::size_t session;
  std::size_t observed;  // transactions folded in
};

}  // namespace

LayerTimes run_layers(const core::QoeEstimator& estimator,
                      const std::vector<trace::TlsLog>& logs,
                      const std::vector<std::string>& clients,
                      const alert::AlertPipelineConfig& alerts,
                      const core::LabeledDataset& train) {
  LayerTimes t;
  const std::size_t width = estimator.feature_count();
  core::TlsFeatureAccumulator acc = estimator.make_accumulator();
  std::size_t records = 0;
  std::vector<Snapshot> snaps;
  for (std::size_t s = 0; s < logs.size(); ++s) {
    records += logs[s].size();
    for (std::size_t k = 1; k <= logs[s].size(); ++k) {
      if (k >= kMinTransactions && k % kLayerCadence == 0) snaps.push_back({s, k});
    }
  }
  std::vector<double> rows(snaps.size() * width);
  std::vector<int> predicted(snaps.size());
  std::vector<double> confidence(snaps.size());
  std::vector<double> proba(core::kNumQoeClasses);

  std::vector<double> observe_ns, snapshot_ns, predict_ns, provisional_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      const ScopedSpan phase("layer.accumulator.observe", /*phase=*/true);
      const std::int64_t a = now_ns();
      for (const trace::TlsLog& log : logs) {
        acc.reset();
        for (const auto& txn : log) acc.observe(txn);
      }
      observe_ns.push_back(static_cast<double>(now_ns() - a) /
                           static_cast<double>(std::max<std::size_t>(records, 1)));
    }
    {
      // Fold up to each snapshot point untimed, time the snapshot alone.
      const ScopedSpan phase("layer.accumulator.snapshot", /*phase=*/true);
      std::int64_t total = 0;
      std::size_t folded = 0;
      std::size_t session = logs.size();
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        const Snapshot& sn = snaps[i];
        if (sn.session != session) {
          session = sn.session;
          acc.reset();
          folded = 0;
        }
        for (; folded < sn.observed; ++folded) acc.observe(logs[session][folded]);
        const std::int64_t a = now_ns();
        acc.snapshot_into(std::span<double>(&rows[i * width], width));
        total += now_ns() - a;
      }
      snapshot_ns.push_back(static_cast<double>(total) /
                            static_cast<double>(std::max<std::size_t>(snaps.size(), 1)));
    }
    {
      const ScopedSpan phase("layer.predict_into", /*phase=*/true);
      const std::int64_t a = now_ns();
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        predicted[i] = estimator.predict_into(
            std::span<const double>(&rows[i * width], width), proba);
        confidence[i] = proba[static_cast<std::size_t>(predicted[i])];
      }
      predict_ns.push_back(static_cast<double>(now_ns() - a) /
                           static_cast<double>(std::max<std::size_t>(snaps.size(), 1)));
    }
    {
      // One lane, no watermarks: each call is the hysteresis filter plus,
      // for a surviving transition, the lane-buffer append.
      const ScopedSpan phase("layer.alert.on_provisional", /*phase=*/true);
      alert::AlertPipeline lane(alerts);
      lane.bind(1);
      const std::int64_t a = now_ns();
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        const trace::TlsLog& log = logs[snaps[i].session];
        core::ProvisionalEstimate e;
        e.client = clients[snaps[i].session];
        e.transactions_observed = snaps[i].observed;
        e.predicted_class = predicted[i];
        e.confidence = confidence[i];
        e.session_start_s = log.front().start_s;
        e.last_activity_s = log[snaps[i].observed - 1].start_s;
        lane.on_provisional(0, e);
      }
      provisional_ns.push_back(static_cast<double>(now_ns() - a) /
                               static_cast<double>(std::max<std::size_t>(snaps.size(), 1)));
    }
  }
  t.observe_ns = median(observe_ns);
  t.snapshot_ns = median(snapshot_ns);
  t.predict_into_ns = median(predict_ns);
  t.on_provisional_ns = median(provisional_ns);

  std::vector<double> extract_us, batch_rate;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      const ScopedSpan phase("layer.extract_tls_features", /*phase=*/true);
      const std::int64_t a = now_ns();
      for (const trace::TlsLog& log : logs) {
        core::extract_tls_features(log, estimator.config().features);
      }
      extract_us.push_back(static_cast<double>(now_ns() - a) / 1e3 /
                           static_cast<double>(std::max<std::size_t>(logs.size(), 1)));
    }
    {
      const ScopedSpan phase("layer.predict_batch", /*phase=*/true);
      const std::int64_t a = now_ns();
      const std::vector<int> classes = estimator.predict_batch(logs);
      batch_rate.push_back(static_cast<double>(classes.size()) /
                           (static_cast<double>(now_ns() - a) / 1e9));
    }
  }
  t.extract_us = median(extract_us);
  t.predict_batch_rows_per_s = median(batch_rate);

  // The estimator's own forest, refit with phase timing on.
  ml::Dataset data(core::tls_feature_names(estimator.config().features),
                   core::kNumQoeClasses);
  data.reserve(train.size());
  for (const core::LabeledSession& s : train) {
    data.add_row(core::extract_tls_features(s.record.tls,
                                            estimator.config().features),
                 s.labels.label_for(estimator.config().target));
  }
  ml::RandomForestParams params = estimator.config().forest;
  params.collect_timing = true;
  ml::RandomForest forest(params);
  {
    const ScopedSpan phase("layer.forest_fit", /*phase=*/true);
    forest.fit(data);
  }
  if (const ml::RandomForestFitTiming* timing = forest.last_fit_timing()) {
    t.fit_columns_s = timing->column_build_s;
    t.fit_trees_wall_s = timing->trees_wall_s;
  }
  return t;
}

}  // namespace droppkt::benchmark
