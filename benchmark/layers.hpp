// Outside-in layer runs of the traced invocation: each times one public
// entry point of the core, ml or alert layer in isolation, on sessions of
// the workload's own feed (or held-out set).
#pragma once

#include <string>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "trace/records.hpp"

namespace droppkt::benchmark {

struct LayerTimes {
  double observe_ns = 0.0;         // TlsFeatureAccumulator::observe
  double snapshot_ns = 0.0;        // snapshot_into at the provisional cadence
  double predict_into_ns = 0.0;    // QoeEstimator::predict_into per row
  double on_provisional_ns = 0.0;  // AlertPipeline::on_provisional, one lane
  double extract_us = 0.0;         // extract_tls_features per session
  double predict_batch_rows_per_s = 0.0;
  double fit_columns_s = 0.0;      // RandomForest fit phases
  double fit_trees_wall_s = 0.0;
};

/// Provisional cadence of the accumulator run: every 4th record once a
/// session holds the monitor's minimum of 3.
inline constexpr std::size_t kLayerCadence = 4;

LayerTimes run_layers(const core::QoeEstimator& estimator,
                      const std::vector<trace::TlsLog>& logs,
                      const std::vector<std::string>& clients,
                      const alert::AlertPipelineConfig& alerts,
                      const core::LabeledDataset& train);

}  // namespace droppkt::benchmark
