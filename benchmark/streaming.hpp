// Streaming runs: the deployment under test (engine + alert pipeline +
// telemetry sampler), the open-loop load generator that drives it, and the
// single-threaded reference run whose outputs every engine run must match.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/estimator.hpp"
#include "engine/alert_sink.hpp"
#include "engine/engine.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/streamer.hpp"
#include "workloads.hpp"

namespace droppkt::benchmark {

/// Forwards every verdict-bearing call to the alert pipeline inside a span,
/// so a traced run times each layer crossing (no span when tracing is off).
class TimedAlertSink final : public engine::AlertSink {
 public:
  explicit TimedAlertSink(engine::AlertSink& inner) : inner_(inner) {}

  void bind(std::size_t num_shards) override { inner_.bind(num_shards); }
  void bind_telemetry(telemetry::MetricRegistry& registry) override {
    inner_.bind_telemetry(registry);
  }
  void on_provisional(std::size_t shard,
                      const core::ProvisionalEstimate& estimate) override;
  void on_session(std::size_t shard, const core::MonitoredSessionView& session,
                  bool at_close) override;
  void on_watermark(std::size_t shard, double watermark_s) override;
  void on_finish() override;
  engine::AlertCounts counts() const override { return inner_.counts(); }

 private:
  engine::AlertSink& inner_;
};

/// The deployment configuration under test: an IngestEngine with an
/// AlertPipeline attached, sharing one metric registry that an
/// IntervalStreamer samples every 100 ms on its own thread. Constructing
/// one is what setup_s times (after the model load).
class Deployment {
 public:
  Deployment(const core::QoeEstimator& estimator, const StreamSetup& setup,
             engine::IngestEngine::SessionSink sessions,
             engine::IngestEngine::ProvisionalSink provisionals);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  engine::IngestEngine& engine() { return engine_; }
  const alert::AlertPipeline& pipeline() const { return pipeline_; }

  /// Drain and join the engine, then stop the sampler after one last
  /// interval. Idempotent.
  void finish();

  std::uint64_t intervals() const { return streamer_.intervals_sampled(); }
  std::uint64_t dropped_intervals() const {
    return streamer_.dropped_intervals();
  }
  /// Interval-frame bytes on the wire (the stream header excluded).
  std::size_t interval_bytes() const { return wire_.size() - header_bytes_; }

 private:
  void sample();

  telemetry::MetricRegistry registry_;
  alert::AlertPipeline pipeline_;
  TimedAlertSink timed_{pipeline_};
  engine::IngestEngine engine_;
  telemetry::IntervalStreamer streamer_;
  std::vector<std::uint8_t> wire_;
  std::size_t header_bytes_ = 0;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread sampler_;  // last: joined before the members it uses go
};

/// Reference output: a single-threaded StreamingMonitor over the same feed
/// with the engine's watermark cadence, wired to a one-lane AlertPipeline
/// the way an engine shard wires its sink. The engine guarantees the same
/// session multiset and alert sequence for any shard count.
struct Oracle {
  std::vector<std::string> sessions;  // sorted session lines
  std::vector<std::string> at_close;  // sorted lines flushed by finish()
  std::uint64_t provisionals = 0;
  std::string alerts;                  // canonical alert sequence
  std::vector<alert::AlertEvent> alert_log;
  /// Monitor time alone: the run minus its alert calls and bookkeeping.
  double monitor_s = 0.0;
  /// advance_time calls, net of the alert calls they trigger.
  std::vector<double> advance_us;
  /// Sessions kept (session-relative times) for the per-layer runs.
  std::vector<trace::TlsLog> sample_logs;
  std::vector<std::string> sample_clients;
};

Oracle run_oracle(const core::QoeEstimator& estimator, const Inputs& in);

/// One pass of the feed through a fresh Deployment.
struct EngineRun {
  double rate = 0.0;    // offered records/s; 0 = line rate (closed loop)
  double wall_s = 0.0;  // first ingest_batch to finish() returned
  /// Process CPU time over the same interval, less the generator's waits.
  double cpu_s = 0.0;
  /// Peak heap growth over the pass, deployment construction included.
  double peak_heap_mib = 0.0;
  std::uint64_t offered = 0;
  engine::EngineStatsSnapshot stats;
  std::vector<std::string> sessions;  // sorted session lines
  std::uint64_t provisionals = 0;
  std::string alerts;
  std::size_t tracked_locations = 0;
  /// Paced runs: verdict latency in receipt order (sink receipt minus the
  /// time the record that triggered the verdict was offered: its due time,
  /// or later if the generator itself was late), sessions flushed by
  /// finish() excluded; and how late each ingest_batch call was against
  /// the schedule.
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  double end_lag_us = 0.0;
  std::uint64_t intervals = 0;
  std::uint64_t dropped_intervals = 0;
  std::size_t interval_bytes = 0;
  std::uint64_t phase_span = 0;  // traced runs: the run's phase span id
};

EngineRun run_engine(const core::QoeEstimator& estimator, const Inputs& in,
                     double rate, const Oracle& oracle);

/// Count the run's failures against the oracle: records not processed,
/// sessions missing or extra, provisional count, alert sequence, dropped
/// telemetry intervals.
void check_run(const EngineRun& run, const Oracle& oracle,
               const std::string& what, Report& report);

/// Canonical session line (client, record count, class, confidence,
/// start, end, detected) at full precision.
std::string session_line(std::string_view client, std::size_t records,
                         int predicted, double confidence, double start_s,
                         double end_s, double detected_s);

}  // namespace droppkt::benchmark
