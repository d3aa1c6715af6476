// The four workloads and everything generated from a seed: the proxy feed,
// the deployment configuration, and the labelled sessions the workload's
// models are trained and scored on. The program under test receives only
// these generated inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "has/service_profile.hpp"
#include "harness.hpp"

namespace droppkt::benchmark {

/// Deployment configuration of a streaming run.
struct StreamSetup {
  /// Shards, queue, backpressure, monitor; alert_sink and registry are
  /// filled in per run.
  engine::EngineConfig engine;
  alert::AlertPipelineConfig alerts;
  /// Ascending offered rates (records/s); the first is the reference rate
  /// at which end-to-end latency and CPU cost are measured.
  std::vector<double> ladder;
};

struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  /// False for offline_train, whose end-to-end metrics come from training
  /// and batch classification; its traced run still streams `feed`.
  bool streaming = true;
  /// Proxy feed in global start-time order.
  engine::Feed feed;
  StreamSetup stream;
  /// One model per service; streaming workloads serve services[0].
  std::vector<has::ServiceProfile> services;
  std::vector<core::LabeledDataset> train;    // per service, from seed
  std::vector<core::LabeledDataset> heldout;  // per service, from seed + 1
  /// Ground truth of the injected incident (incident_churn only).
  std::optional<engine::IncidentGroundTruth> truth;
};

const std::vector<std::string>& workload_names();

/// Generate a workload's inputs; the same seed gives the same inputs.
Inputs make_inputs(const std::string& workload, std::uint64_t seed);

/// The workload's models, trained from its seed, saved to disk and scored.
struct Models {
  std::vector<std::string> paths;  // saved estimator, one per service
  std::vector<core::QoeEstimator> trained;
  Scaled train_s;             // per rep: training every model once
  double accuracy = 0.0;      // pooled held-out accuracy, combined target
  double mem_peak_mb = 0.0;   // peak heap growth of one training rep
  std::size_t heldout_sessions = 0;
};

/// Train every model `min_reps` times or more, until `budget_s` has passed;
/// score them on the held-out sessions; save them under `work_dir`; check
/// that a reloaded model predicts exactly what the trained one does and
/// that accuracy is at least 0.80.
Models build_models(const Inputs& in, const std::string& work_dir,
                    std::size_t min_reps, double budget_s, MachineProbe& probe,
                    Report& report);

/// Held-out accuracy floor of the output check.
inline constexpr double kAccuracyFloor = 0.80;

}  // namespace droppkt::benchmark
