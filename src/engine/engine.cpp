#include "engine/engine.hpp"

#include <algorithm>

#include "engine/alert_sink.hpp"
#include "util/expect.hpp"

namespace droppkt::engine {

namespace {

/// Every k-th record a shard accepts carries a queue-latency stamp (see
/// make_record_msg for why not every record).
constexpr std::size_t kLatencySampleEvery = 64;

}  // namespace

IngestEngine::IngestEngine(const core::QoeEstimator& estimator,
                           SessionSink sink, EngineConfig config)
    : IngestEngine(estimator, std::move(sink), ProvisionalSink{},
                   std::move(config)) {}

IngestEngine::IngestEngine(const core::QoeEstimator& estimator,
                           SessionSink sink, ProvisionalSink provisional,
                           EngineConfig config)
    : estimator_(&estimator),
      sink_(std::move(sink)),
      provisional_sink_(std::move(provisional)),
      config_(config) {
  DROPPKT_EXPECT(estimator.trained(), "IngestEngine: estimator must be trained");
  DROPPKT_EXPECT(static_cast<bool>(sink_), "IngestEngine: sink must be callable");
  DROPPKT_EXPECT(config_.watermark_interval_s > 0.0,
                 "IngestEngine: watermark interval must be positive");
  DROPPKT_EXPECT(config_.drain_block > 0,
                 "IngestEngine: drain block must be positive");
  std::size_t n = config_.num_shards;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<telemetry::MetricRegistry>();
    registry_ = owned_registry_.get();
  }
  if (config_.alert_sink) {
    config_.alert_sink->bind(n);
    // Setup phase: the sink registers its "alert.*" instruments before any
    // worker thread exists, honoring the registry's threading contract.
    config_.alert_sink->bind_telemetry(*registry_);
  }
  // Captured as plain bools: the sink callables themselves are guarded by
  // sink_mutex_, and testing emptiness per event inside the worker lambdas
  // would either race the guard or take the global mutex even when only
  // the alert hook is installed.
  const bool has_provisional_sink = static_cast<bool>(provisional_sink_);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>(config_.queue_capacity,
                                         config_.backpressure);
    Shard* sh = shard.get();
    sh->index = i;
    sh->staging.reserve(config_.drain_block);
    // The callback runs on the shard's worker thread; the sink mutex
    // serializes cross-shard emission. The alert hook stays outside the
    // mutex: its shard-side stage is per-shard state, so serializing it
    // globally would be pure contention.
    sh->monitor = std::make_unique<core::StreamingMonitor>(
        core::StreamingMonitor::ViewSinkTag{}, *estimator_,
        [this, sh](const core::MonitoredSessionView& s) {
          // The shard's session counter is bumped by the monitor itself
          // (bound below), exactly once per emitted session.
          if (config_.alert_sink) {
            config_.alert_sink->on_session(sh->index, s, sh->draining);
          }
          const util::MutexLock lock(sink_mutex_);
          sink_(s);
        },
        config_.monitor);
    // The ingest thread interns into the shard's pools; the worker's
    // monitor only resolves refs (publication rides the mailbox).
    sh->monitor->use_external_pools(&sh->clients, &sh->snis);
    register_shard_metrics(*sh);
    // The monitor reports session lifecycle (sessions, provisionals,
    // evictions, noise drops, late records) straight into the shard's
    // registry counters.
    sh->monitor->bind_telemetry(core::MonitorMetrics{
        sh->metrics.sessions, sh->metrics.provisionals,
        sh->metrics.clients_evicted, sh->metrics.noise_dropped,
        sh->metrics.late});
    if (has_provisional_sink || config_.alert_sink) {
      // In-flight QoE fan-in mirrors the session sink: serialized across
      // shards by the same mutex (counting lives in the monitor).
      sh->monitor->set_provisional_callback(
          [this, sh, has_provisional_sink](const core::ProvisionalEstimate& e) {
            if (config_.alert_sink) {
              config_.alert_sink->on_provisional(sh->index, e);
            }
            if (has_provisional_sink) {
              const util::MutexLock lock(sink_mutex_);
              provisional_sink_(e);
            }
          });
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->worker = std::thread([this, sh] { worker_loop(*sh); });
  }
}

IngestEngine::~IngestEngine() { finish(); }

std::size_t IngestEngine::shard_of(std::string_view client) const {
  return util::well_mixed_hash(client) % shards_.size();
}

IngestEngine::Msg IngestEngine::make_record_msg(
    Shard& sh, std::string_view client, const trace::TlsTransaction& txn) {
  Msg m;
  m.kind = Msg::Kind::kRecord;
  m.client_ref = sh.clients.intern(client);
  m.rec = core::to_tls_record(txn, sh.snis);
  // Sampled latency stamping: a clock read per record costs more than the
  // rest of this function; every k-th record per shard keeps the
  // histogram live at negligible cost.
  if (++sh.stamp_phase >= kLatencySampleEvery) {
    sh.stamp_phase = 0;
    m.enqueue_tp = std::chrono::steady_clock::now();
  }
  return m;
}

void IngestEngine::maybe_broadcast_watermark(double start_s) {
  // Low-watermark broadcast: the global feed has reached start_s, so
  // every shard — including ones whose clients have gone quiet — may evict
  // clients idle past the timeout. Each shard's mailbox is FIFO, so the
  // watermark is processed after every record enqueued before it; staged
  // records are flushed first to keep that invariant under batching.
  if (saw_record_ &&
      start_s - last_watermark_s_ < config_.watermark_interval_s) {
    return;
  }
  last_watermark_s_ = start_s;
  saw_record_ = true;
  flush_all_staging();
  for (auto& shard : shards_) {
    Msg wm;
    wm.kind = Msg::Kind::kWatermark;
    wm.rec.start_s = start_s;
    shard->queue.push(wm);
  }
}

void IngestEngine::register_shard_metrics(Shard& sh) {
  const std::string prefix = "engine.shard" + std::to_string(sh.index) + ".";
  telemetry::MetricRegistry& r = *registry_;
  sh.metrics.enqueued = &r.counter(prefix + "enqueued", "records");
  sh.metrics.records = &r.counter(prefix + "records", "records");
  sh.metrics.watermarks = &r.counter(prefix + "watermarks");
  sh.metrics.sessions = &r.counter(prefix + "sessions");
  sh.metrics.provisionals = &r.counter(prefix + "provisionals");
  sh.metrics.clients_evicted = &r.counter(prefix + "clients_evicted");
  sh.metrics.noise_dropped = &r.counter(prefix + "noise_dropped");
  sh.metrics.late = &r.counter(prefix + "late", "records");
  sh.metrics.dropped = &r.counter(prefix + "dropped", "records");
  sh.metrics.queue_depth = &r.gauge(prefix + "queue_depth", "records");
  sh.metrics.queue_high_water = &r.gauge(prefix + "queue_high_water", "records");
  sh.metrics.interned_clients = &r.gauge(prefix + "interned_clients");
  sh.metrics.interned_snis = &r.gauge(prefix + "interned_snis");
  sh.metrics.latency = &r.histogram(prefix + "latency", "ns");
}

void IngestEngine::flush_shard(Shard& sh) {
  if (sh.staging.empty()) return;
  sh.queue.push_bulk(sh.staging.data(), sh.staging.size());
  sh.metrics.enqueued->add(sh.staging.size());
  sh.staging.clear();
}

void IngestEngine::flush_all_staging() {
  for (auto& shard : shards_) flush_shard(*shard);
}

void IngestEngine::ingest_batch(std::span<const FeedRecord> batch) {
  DROPPKT_EXPECT(!finished_, "IngestEngine: ingest after finish");
  for (const FeedRecord& r : batch) {
    DROPPKT_EXPECT(!r.client.empty(),
                   "IngestEngine: client must be non-empty");
    maybe_broadcast_watermark(r.txn.start_s);
    Shard& sh = *shards_[shard_of(r.client)];
    sh.staging.push_back(make_record_msg(sh, r.client, r.txn));
    if (sh.staging.size() >= config_.drain_block) flush_shard(sh);
  }
  flush_all_staging();
}

void IngestEngine::worker_loop(Shard& shard) {
  // Block-drained hot loop: one mailbox operation moves up to drain_block
  // POD messages, and the shared counters are published once per block —
  // per-record work is just the monitor call (plus a clock read for the
  // sampled subset carrying a stamp).
  std::vector<Msg> block(config_.drain_block);
  std::uint64_t records = 0;
  std::uint64_t watermarks = 0;
  for (;;) {
    const std::size_t got =
        shard.queue.pop_wait_bulk(block.data(), block.size());
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      const Msg& m = block[i];
      if (m.kind == Msg::Kind::kRecord) {
        shard.monitor->observe_ref(m.client_ref, m.rec);
        ++records;
        if (m.enqueue_tp.time_since_epoch().count() != 0) {
          const auto done = std::chrono::steady_clock::now();
          shard.metrics.latency->record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  done - m.enqueue_tp)
                  .count()));
        }
      } else {
        // advance_time first: sessions it evicts carry detected_s equal to
        // the watermark, and the sink must see them before it learns the
        // shard has reached that time.
        shard.monitor->advance_time(m.rec.start_s);
        ++watermarks;
        if (config_.alert_sink) {
          config_.alert_sink->on_watermark(shard.index, m.rec.start_s);
        }
      }
    }
    shard.metrics.records->store(records);
    shard.metrics.watermarks->store(watermarks);
  }
  shard.draining = true;
  shard.monitor->finish();
}

void IngestEngine::finish() {
  if (finished_) return;
  finished_ = true;
  flush_all_staging();
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // All workers have joined, so every on_* call has completed; the sink
  // may now flush its buffered tail single-threaded.
  if (config_.alert_sink) config_.alert_sink->on_finish();
}

void IngestEngine::refresh_gauges() const {
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    sh.metrics.dropped->store(sh.queue.dropped());
    sh.metrics.queue_depth->set(sh.queue.size());
    sh.metrics.queue_high_water->set(sh.queue.high_water());
    sh.metrics.interned_clients->set(sh.clients.size());
    sh.metrics.interned_snis->set(sh.snis.size());
  }
}

EngineStatsSnapshot IngestEngine::stats() const {
  refresh_gauges();
  EngineStatsSnapshot snap;
  telemetry::Histogram::Counts merged{};
  snap.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    ShardStatsSnapshot s;
    s.shard = i;
    s.enqueued = sh.metrics.enqueued->value();
    s.records = sh.metrics.records->value();
    s.watermarks = sh.metrics.watermarks->value();
    s.sessions = sh.metrics.sessions->value();
    s.provisionals = sh.metrics.provisionals->value();
    s.clients_evicted = sh.metrics.clients_evicted->value();
    s.sessions_noise_dropped = sh.metrics.noise_dropped->value();
    s.records_late = sh.metrics.late->value();
    s.dropped = sh.queue.dropped();
    s.queue_depth = sh.queue.size();
    s.queue_high_water = sh.queue.high_water();
    s.interned_clients = sh.clients.size();
    s.interned_snis = sh.snis.size();
    snap.records_ingested += s.enqueued;
    snap.records_processed += s.records;
    snap.records_dropped += s.dropped;
    snap.sessions_reported += s.sessions;
    snap.provisionals_reported += s.provisionals;
    snap.clients_evicted += s.clients_evicted;
    snap.sessions_noise_dropped += s.sessions_noise_dropped;
    snap.records_late += s.records_late;
    snap.interned_clients += s.interned_clients;
    snap.interned_snis += s.interned_snis;
    snap.max_queue_high_water = std::max(snap.max_queue_high_water,
                                         s.queue_high_water);
    sh.metrics.latency->add_to(merged);
    snap.shards.push_back(s);
  }
  snap.latency_p50_us = telemetry::histogram_quantile(merged, 0.50) / 1000.0;
  snap.latency_p99_us = telemetry::histogram_quantile(merged, 0.99) / 1000.0;
  if (config_.alert_sink) {
    const AlertCounts ac = config_.alert_sink->counts();
    snap.alerting = true;
    snap.verdict_transitions = ac.transitions;
    snap.verdicts_suppressed = ac.suppressed;
    snap.alerts_raised = ac.alerts_raised;
    snap.alerts_cleared = ac.alerts_cleared;
  }
  return snap;
}

std::uint64_t IngestEngine::sessions_reported() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->metrics.sessions->value();
  }
  return total;
}

std::uint64_t IngestEngine::provisionals_reported() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->metrics.provisionals->value();
  }
  return total;
}

}  // namespace droppkt::engine
