// IngestEngine: the deployment-scale layer between a proxy's TLS
// transaction feed and the paper's per-client QoE pipeline.
//
// A transparent proxy exports one globally time-ordered stream of
// (client, TlsTransaction) records for an entire vantage point — far more
// than one core's StreamingMonitor can drain at ISP scale. The engine
// hashes each client to one of N shards; every shard runs its own
// StreamingMonitor on a dedicated worker thread, fed through a bounded
// lock-free SPSC mailbox (util::SpscQueue), so session delimitation and
// classification parallelize with zero cross-shard locking on the hot
// path. Because a client's records all hash to the same shard, per-client
// ordering — the only ordering the monitor needs — is preserved.
//
// Hot-path representation (the carrier-scale record path):
//   * Client ids and SNIs are interned into shard-local util::StringPools
//     by the ingest thread; mailbox messages are fixed-size PODs carrying
//     4-byte refs plus the numeric record fields — no string is copied or
//     allocated per record, and the worker resolves names only when a
//     session is emitted (orders of magnitude rarer than arrival).
//   * ingest_batch() routes a caller-sized span of feed records through
//     per-shard staging buffers and publishes them to the mailboxes in
//     blocks (SpscQueue::push_bulk); workers drain symmetric blocks with
//     pop_wait_bulk — the fastclick push/push_batch idiom, paying queue
//     and bookkeeping overhead once per block instead of once per record.
//   * Queue latency is stamped on a sampled subset of records
//     (latency_sample_every) and per-thread counters accumulate locally,
//     publishing to the shared snapshot atomics once per drained block —
//     no steady_clock read and no shared-cache-line RMW per record.
//
// Quiet shards still evict idle clients: the ingest thread periodically
// broadcasts a low-watermark timestamp (the feed time reached by the
// global stream) to every shard, which forwards it to
// StreamingMonitor::advance_time(). Completed sessions from all shards
// fan into one sink, serialized by a mutex (sessions complete ~10^2-10^4x
// less often than records arrive, so the lock is off the hot path).
//
// Determinism: for a fixed feed and config, an N-shard run — batched or
// not, any batch size — reports exactly the same session set (per-client
// boundaries and predicted classes) as a 1-shard run or a plain
// single-threaded StreamingMonitor, because each shard's
// record-and-watermark message sequence is identical regardless of N and
// of how records were grouped into ingest_batch() calls. Only the
// emission *order* across clients varies.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/estimator.hpp"
#include "core/monitor.hpp"
#include "core/tls_record.hpp"
#include "engine/engine_stats.hpp"
#include "engine/feed.hpp"
#include "telemetry/registry.hpp"
#include "trace/records.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/spsc_queue.hpp"
#include "util/string_pool.hpp"

namespace droppkt::engine {

class AlertSink;  // engine/alert_sink.hpp

struct EngineConfig {
  /// Number of shard workers; 0 means hardware_concurrency (min 1).
  std::size_t num_shards = 0;
  /// Per-shard mailbox capacity (rounded up to a power of two).
  std::size_t queue_capacity = 4096;
  /// What a full mailbox does to the ingest thread: stall it (kBlock) or
  /// shed the shard's oldest backlog (kDropOldest, counted per shard).
  util::BackpressurePolicy backpressure = util::BackpressurePolicy::kBlock;
  /// Per-shard monitor configuration (session delimitation, idle timeout).
  core::MonitorConfig monitor;
  /// Feed-time interval between low-watermark broadcasts. Must be positive;
  /// values well below the idle timeout keep quiet-shard eviction timely.
  double watermark_interval_s = 15.0;
  /// Stamp-and-measure queue latency on every k-th record accepted by a
  /// shard (1 = every record — the pre-batching behavior; 0 = never). A
  /// steady_clock read per record costs more than the rest of the enqueue
  /// path, so the default samples: the histogram stays populated while the
  /// hot path stays clock-free.
  std::size_t latency_sample_every = 64;
  /// Block size for batched transfer: ingest_batch() flushes a shard's
  /// staging buffer at this size, and workers drain up to this many
  /// messages per mailbox operation.
  std::size_t drain_block = 256;
  /// Optional verdict consumer (see engine/alert_sink.hpp for the
  /// threading contract). Borrowed; must outlive the engine. The alert
  /// subsystem's alert::AlertPipeline is the intended implementation.
  AlertSink* alert_sink = nullptr;
  /// Metric registry the engine registers its "engine.shard<i>.*"
  /// instruments in (and hands the alert sink via bind_telemetry).
  /// Borrowed; must outlive the engine, and must not already hold another
  /// engine's metrics (duplicate names throw). nullptr (the default): the
  /// engine owns a private registry, reachable via registry().
  telemetry::MetricRegistry* registry = nullptr;
};

/// Sharded multi-threaded ingest over a proxy's TLS transaction feed.
///
/// ingest() / ingest_batch() must be called from one thread at a time (the
/// proxy feed is a single ordered stream); records must arrive in global
/// start-time order. The estimator is borrowed, must outlive the engine,
/// and must be safe for concurrent predict() calls (it is: prediction is
/// read-only). The sink is invoked from worker threads, one call at a
/// time.
class IngestEngine {
 public:
  /// Session sink: invoked with a borrowed view (valid only during the
  /// call) — copy via to_owned() to retain, or read the interned `records`
  /// to stay allocation-free. The view's `transactions` span is empty
  /// unless config.monitor.materialize_transactions is on; to_owned()
  /// copies complete sessions either way.
  using SessionSink = std::function<void(const core::MonitoredSessionView&)>;
  using ProvisionalSink =
      std::function<void(const core::ProvisionalEstimate&)>;

  IngestEngine(const core::QoeEstimator& estimator, SessionSink sink,
               EngineConfig config = {});

  /// With in-flight QoE surfacing: each shard's monitor emits a
  /// provisional estimate every config.monitor.provisional_every records
  /// per client (see core::ProvisionalEstimate). Like the session sink,
  /// `provisional` is invoked from worker threads one call at a time; the
  /// estimate's `client` view is valid only during the call.
  IngestEngine(const core::QoeEstimator& estimator, SessionSink sink,
               ProvisionalSink provisional, EngineConfig config = {});
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Route one proxy record to its client's shard. Applies the configured
  /// backpressure policy if that shard's mailbox is full. The unbatched
  /// path: one mailbox operation per record.
  DROPPKT_NOALLOC void ingest(std::string_view client,
                              const trace::TlsTransaction& txn);

  /// Route a block of feed records (global start-time order, continuing
  /// the stream fed so far). Records are interned, staged per shard, and
  /// published to the mailboxes in bulk; every staged record is visible to
  /// its shard by the time the call returns. Produces byte-identical
  /// sessions and alert sequences to the same records fed one ingest()
  /// call at a time, for any grouping into batches.
  DROPPKT_NOALLOC void ingest_batch(std::span<const FeedRecord> batch);

  /// Close all mailboxes, drain them, flush every shard's monitor and join
  /// the workers. Idempotent; called by the destructor if needed. After
  /// finish(), ingest() must not be called again.
  void finish();

  std::size_t num_shards() const { return shards_.size(); }

  /// Which shard a client's records are routed to.
  std::size_t shard_of(std::string_view client) const;

  /// Point-in-time statistics; safe to call while ingesting. A view over
  /// the telemetry registry plus the live queue/pool sources (which
  /// refresh_gauges() republishes as gauges first).
  EngineStatsSnapshot stats() const;

  /// The registry holding the engine's (and its alert sink's) metrics —
  /// the one passed in EngineConfig::registry, or the engine-owned one.
  /// Interval consumers (telemetry::IntervalStreamer, dashboards) sample
  /// this.
  telemetry::MetricRegistry& registry() const { return *registry_; }

  /// Republish the registry gauges whose sources of truth live outside it
  /// (queue depth / high water / dropped, interned pool sizes). stats()
  /// calls this; interval samplers should too, just before sampling.
  /// Concurrent callers race benignly: every store publishes a valid
  /// recent reading of a monotone or instantaneous source.
  void refresh_gauges() const;

  /// Total sessions reported across all shards so far.
  std::uint64_t sessions_reported() const;

  /// Total in-flight (provisional) estimates reported across all shards.
  std::uint64_t provisionals_reported() const;

 private:
  /// Fixed-size POD mailbox message: 4-byte interned refs instead of
  /// owning strings, so queue transfer never touches the allocator and a
  /// dropped (kDropOldest) message is discarded for free.
  struct Msg {
    enum class Kind : std::uint8_t { kRecord, kWatermark };
    Kind kind = Kind::kRecord;
    util::StringPool::Ref client_ref = 0;  // unused for watermarks
    core::TlsRecord rec;  // for watermarks only rec.start_s is used
    /// Set only on latency-sampled records (time_point{} = unsampled).
    std::chrono::steady_clock::time_point enqueue_tp{};
  };

  struct Shard {
    Shard(std::size_t cap, util::BackpressurePolicy policy)
        : queue(cap, policy) {}
    util::SpscQueue<Msg> queue;
    /// Registry-backed instruments ("engine.shard<i>.*"); see
    /// ShardMetrics for the per-field writer contract.
    ShardMetrics metrics;
    /// Shard-local interning pools: written only by the ingest thread,
    /// resolved by this shard's worker for refs it received through the
    /// mailbox (the queue's release/acquire pair publishes the entries).
    util::StringPool clients;
    util::StringPool snis;
    /// ingest_batch staging (ingest thread only); capacity reused.
    std::vector<Msg> staging;
    /// Latency-sampling phase (ingest thread only).
    std::size_t stamp_phase = 0;
    std::unique_ptr<core::StreamingMonitor> monitor;
    std::thread worker;
    std::size_t index = 0;
    /// Set by the shard's own worker just before the shutdown
    /// monitor->finish() flush; read only from monitor callbacks on that
    /// same thread, so no atomics needed. Lets the alert sink distinguish
    /// feed-delimited sessions from force-flushed ones.
    bool draining = false;
  };

  /// Shard drain loop; allocation-free after its one-time drain-buffer
  /// setup (the per-record work is monitor calls on POD messages).
  DROPPKT_NOALLOC void worker_loop(Shard& shard);
  /// Build the POD message for one record on shard `sh` (interning).
  DROPPKT_NOALLOC Msg make_record_msg(Shard& sh, std::string_view client,
                                      const trace::TlsTransaction& txn);
  /// Broadcast a low watermark when the feed time calls for one. Flushes
  /// all staging first so every queue sees records-before-watermark in
  /// feed order — the invariant batching must not disturb.
  DROPPKT_NOALLOC void maybe_broadcast_watermark(double start_s);
  DROPPKT_NOALLOC void flush_shard(Shard& sh);
  DROPPKT_NOALLOC void flush_all_staging();
  /// Register shard `sh`'s instruments in the registry (setup phase).
  void register_shard_metrics(Shard& sh);

  const core::QoeEstimator* estimator_;
  /// The sink mutex serializes cross-shard sink invocations; the sink
  /// callables are set once at construction and guarded so the analysis
  /// proves no worker invokes them without holding it.
  util::Mutex sink_mutex_;
  SessionSink sink_ DROPPKT_GUARDED_BY(sink_mutex_);
  ProvisionalSink provisional_sink_ DROPPKT_GUARDED_BY(sink_mutex_);
  EngineConfig config_;
  /// Engine-owned registry when EngineConfig::registry is null.
  std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
  telemetry::MetricRegistry* registry_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  double last_watermark_s_ = 0.0;
  bool saw_record_ = false;
  bool finished_ = false;
};

}  // namespace droppkt::engine
