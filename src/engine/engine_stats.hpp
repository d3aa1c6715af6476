// Observability for the ingest engine, as a view over the unified
// telemetry plane (src/telemetry/): every per-shard counter, gauge and
// latency histogram lives in a telemetry::MetricRegistry under
// "engine.shard<i>.*" names, and the snapshot structs here are
// point-in-time copies of those instruments.
//
// Counters stay single-writer per field (the ingest thread for
// enqueue-side counts, the shard worker for processing-side counts), so
// snapshots need no locks and cost nothing on the hot path — the same
// contract the pre-registry per-shard atomics had.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace droppkt::engine {

/// One shard's registry-backed instruments ("engine.shard<i>.*"). The
/// pointers are stable for the registry's lifetime; hot paths update
/// through them with relaxed atomics. Which thread writes each:
///   ingest thread: enqueued
///   shard worker:  records, watermarks, latency — and, via the monitor's
///                  MonitorMetrics binding: sessions, provisionals,
///                  clients_evicted, noise_dropped
///   refresh_gauges (any thread): dropped, queue_depth, queue_high_water,
///                  interned_clients, interned_snis — republished from
///                  their sources of truth (queue, pools).
struct ShardMetrics {
  telemetry::Counter* enqueued = nullptr;
  telemetry::Counter* records = nullptr;
  telemetry::Counter* watermarks = nullptr;
  telemetry::Counter* sessions = nullptr;
  telemetry::Counter* provisionals = nullptr;
  telemetry::Counter* clients_evicted = nullptr;
  telemetry::Counter* noise_dropped = nullptr;
  telemetry::Counter* dropped = nullptr;
  telemetry::Gauge* queue_depth = nullptr;
  telemetry::Gauge* queue_high_water = nullptr;
  telemetry::Gauge* interned_clients = nullptr;
  telemetry::Gauge* interned_snis = nullptr;
  /// Sampled records' enqueue -> observe_ref() return time, in ns —
  /// mostly queue wait, plus the monitor's work on the record itself.
  telemetry::Histogram* latency = nullptr;
};

/// Point-in-time copy of one shard's counters.
struct ShardStatsSnapshot {
  std::size_t shard = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t records = 0;
  std::uint64_t watermarks = 0;
  std::uint64_t sessions = 0;
  std::uint64_t provisionals = 0;
  std::uint64_t clients_evicted = 0;         // idle-timeout evictions
  std::uint64_t sessions_noise_dropped = 0;  // below min_session_records
  std::uint64_t dropped = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  std::size_t interned_clients = 0;  // distinct clients in the shard pool
  std::size_t interned_snis = 0;     // distinct SNIs in the shard pool
};

/// Aggregate view across all shards.
struct EngineStatsSnapshot {
  std::vector<ShardStatsSnapshot> shards;
  std::uint64_t records_ingested = 0;   // accepted by ingest()
  std::uint64_t records_processed = 0;  // observed by shard monitors
  std::uint64_t records_dropped = 0;    // shed by kDropOldest backpressure
  std::uint64_t sessions_reported = 0;
  std::uint64_t provisionals_reported = 0;  // in-flight estimates emitted
  std::uint64_t clients_evicted = 0;        // idle-timeout client evictions
  std::uint64_t sessions_noise_dropped = 0;  // too short to report
  std::size_t interned_clients = 0;  // distinct clients across shard pools
  std::size_t interned_snis = 0;     // distinct SNIs across shard pools
  std::size_t max_queue_high_water = 0;
  // Enqueue -> observe_ref() return percentiles (mostly queue wait).
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  /// Alerting totals, populated only when an AlertSink is configured.
  bool alerting = false;
  std::uint64_t verdict_transitions = 0;  // passed hysteresis
  std::uint64_t verdicts_suppressed = 0;  // absorbed by hysteresis
  std::uint64_t alerts_raised = 0;
  std::uint64_t alerts_cleared = 0;

  /// Multi-line human-readable table.
  std::string to_string() const;
};

}  // namespace droppkt::engine
