// Streaming monitor: the deployment-shaped wrapper around the paper's
// pipeline. A transparent proxy emits TLS transaction records as
// connections close, interleaved across many subscribers; the monitor
// demultiplexes them per client, delimits sessions online with the
// burst+fresh-server heuristic, and emits a QoE estimate for every
// completed session.
//
// Hot-path representation: clients and SNIs are interned in
// util::StringPools, so per-client state is keyed by a 4-byte ref and the
// pending-session window buffers trivially copyable core::TlsRecord
// values. In standalone use the monitor owns its pools and the string API
// interns on the way in; inside the sharded ingest engine the *producer*
// interns into shard-local pools and the worker feeds refs straight to
// observe_ref() — no string is hashed, copied, or allocated per record on
// the worker. Owning strings are materialized only at emission, into
// scratch that keeps its capacity across sessions, so the steady-state
// record path performs zero heap allocations (gated by a counting-
// allocator test).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "core/feature_accumulator.hpp"
#include "core/session_id.hpp"
#include "core/tls_record.hpp"
#include "telemetry/registry.hpp"
#include "trace/records.hpp"
#include "util/annotations.hpp"
#include "util/string_pool.hpp"

namespace droppkt::core {

/// An owning copy of a completed, classified session — what
/// MonitoredSessionView::to_owned() returns for sinks that keep sessions
/// past the callback.
struct MonitoredSession {
  std::string client;
  trace::TlsLog transactions;
  int predicted_class = 0;  // 0 = low/worst
  double confidence = 0.0;  // forest probability of predicted_class
  double start_s = 0.0;
  double end_s = 0.0;
  /// Feed time at which the monitor decided the session was over (the
  /// record or watermark that triggered emission) — always >= the start
  /// of the session's last record, and the time an alerting layer should
  /// order this verdict by. end_s can exceed it (long final connections).
  double detected_s = 0.0;
};

/// Borrowed view of a completed session — the allocation-free emit path.
/// `client` and `transactions` point into the monitor's storage and are
/// valid only during the callback; sinks that need to retain the session
/// call to_owned(). Skipping the owned copy also lets the monitor keep
/// its emission buffers' capacity across sessions.
struct MonitoredSessionView {
  std::string_view client;
  /// Materialized owning transactions — empty when the monitor runs with
  /// MonitorConfig::materialize_transactions off; `records` always carries
  /// the session content either way.
  std::span<const trace::TlsTransaction> transactions;
  /// The session's interned POD records (always populated). SNI strings
  /// resolve through `sni_pool`; sinks that only need counts or byte
  /// totals read these and skip string materialization entirely.
  std::span<const TlsRecord> records;
  const util::StringPool* sni_pool = nullptr;
  int predicted_class = 0;  // 0 = low/worst
  double confidence = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double detected_s = 0.0;  // see MonitoredSession::detected_s

  /// Deep copy for sinks that outlive the callback. The transactions are
  /// rebuilt from `records` and `sni_pool`, so the copy is complete
  /// whether or not the monitor materializes transactions.
  MonitoredSession to_owned() const {
    MonitoredSession out{.client = std::string(client),
                         .transactions = trace::TlsLog(records.size()),
                         .predicted_class = predicted_class,
                         .confidence = confidence,
                         .start_s = start_s,
                         .end_s = end_s,
                         .detected_s = detected_s};
    for (std::size_t i = 0; i < records.size(); ++i) {
      to_transaction(records[i], *sni_pool, out.transactions[i]);
    }
    return out;
  }
};

/// An in-flight QoE estimate for a client's still-open session — the
/// answer to the paper's §4.3 limitation (TLS records complete only at
/// connection close, so estimates arrive late): each client's live
/// feature accumulator is snapshotted mid-session, at partial-log cost
/// O(features) instead of a full re-extraction. `client` borrows the
/// monitor's storage and is valid only during the callback.
struct ProvisionalEstimate {
  std::string_view client;
  std::size_t transactions_observed = 0;
  int predicted_class = 0;  // 0 = low/worst
  double confidence = 0.0;  // forest probability of predicted_class
  double session_start_s = 0.0;
  double last_activity_s = 0.0;  // start of the newest record
};

/// Registry-backed counters a StreamingMonitor reports through when bound
/// to the telemetry plane (see StreamingMonitor::bind_telemetry). All
/// pointers must be non-null and outlive the monitor.
struct MonitorMetrics {
  telemetry::Counter* sessions = nullptr;
  telemetry::Counter* provisionals = nullptr;
  telemetry::Counter* clients_evicted = nullptr;
  telemetry::Counter* sessions_noise_dropped = nullptr;
};

struct MonitorConfig {
  SessionIdParams session_id;
  /// A client idle this long has finished its last session.
  double client_idle_timeout_s = 120.0;
  /// Sessions with fewer transactions than this are dropped as noise
  /// (stray beacons, preconnects that never carried traffic).
  std::size_t min_transactions = 3;
  /// Emit a provisional estimate every this-many records per client, once
  /// the pending window holds min_transactions records (0 = off). Needs a
  /// provisional callback to have any effect.
  std::size_t provisional_every = 0;
  /// When false, emission skips materializing owning
  /// trace::TlsTransaction strings and the view's `transactions` span is
  /// empty — sinks read the interned `records` instead. Saves one string
  /// resolve+copy per record for sinks (like the alert pipeline) that
  /// never look at transaction contents.
  bool materialize_transactions = true;
};

/// Online QoE monitoring over a proxy's TLS transaction feed.
///
/// Records must arrive in global start-time order (the proxy's export
/// order); interleaving across clients is expected. The estimator is
/// borrowed and must outlive the monitor.
class StreamingMonitor {
 public:
  using ViewCallback = std::function<void(const MonitoredSessionView&)>;
  using ProvisionalCallback = std::function<void(const ProvisionalEstimate&)>;

  /// Sessions are reported as MonitoredSessionView, whose client and
  /// transactions borrow the monitor's emission scratch for the duration
  /// of the callback. Sinks that only inspect the session (counters,
  /// alerting, logging) skip the owned copy entirely, and the scratch
  /// capacity is reused across sessions; sinks that keep sessions call
  /// to_owned().
  struct ViewSinkTag {};
  StreamingMonitor(ViewSinkTag, const QoeEstimator& estimator,
                   ViewCallback on_session, MonitorConfig config = {});

  /// Switch to externally owned interning pools (the sharded engine's
  /// shard-local pools: its ingest thread interns, this monitor's thread
  /// resolves). Must be called before the first record; afterwards feed
  /// records through observe_ref() with refs from exactly these pools —
  /// the string-keyed observe() is disabled because interning would write
  /// to pools this monitor no longer owns. The pools must outlive the
  /// monitor.
  void use_external_pools(const util::StringPool* client_pool,
                          const util::StringPool* sni_pool);

  /// Install the in-flight estimate hook (see MonitorConfig::
  /// provisional_every). Call before feeding records. The callback fires
  /// from inside observe(), before any session-boundary decision — a
  /// later burst boundary can retroactively assign early records to the
  /// previous session, which is inherent to online estimation.
  void set_provisional_callback(ProvisionalCallback on_provisional);

  /// Report through registry-backed counters instead of the monitor's own
  /// (the unified telemetry plane: the sharded engine binds each shard's
  /// monitor to its shard metrics). Must be called before the first
  /// record; the counters must outlive the monitor. Accessors below read
  /// whichever counters are bound.
  void bind_telemetry(const MonitorMetrics& metrics);

  /// Feed one proxy record for a client. Completed sessions (detected via
  /// a new-session burst or the client idle timeout) are classified and
  /// reported through the callback before this call returns. Interns the
  /// client and SNI into the monitor's own pools, then forwards to
  /// observe_ref() — both calls are the same hot path.
  DROPPKT_NOALLOC void observe(const std::string& client,
                               const trace::TlsTransaction& txn);

  /// The allocation-free hot path: feed one interned record. `client_ref`
  /// and `rec.sni_ref` must come from the monitor's pools (owned or
  /// external; see use_external_pools).
  DROPPKT_NOALLOC void observe_ref(util::StringPool::Ref client_ref,
                                   const TlsRecord& rec);

  /// Advance the monitor's notion of "now" to `now_s` (feed time) without
  /// feeding a record: clients idle longer than the timeout have their
  /// pending session emitted and their state evicted. Lets a driver (e.g.
  /// the sharded ingest engine's low-watermark broadcast) fire idle-client
  /// eviction on monitors whose own clients have gone quiet. `now_s` must
  /// not exceed the start time of any record observed later.
  DROPPKT_NOALLOC void advance_time(double now_s);

  /// Flush all in-progress sessions (end of the monitoring window). Their
  /// detected_s is the client's last record start (there is no feed clock
  /// at shutdown).
  void finish();

  std::size_t sessions_reported() const {
    return static_cast<std::size_t>(sessions_ctr_->value());
  }
  std::size_t provisionals_reported() const {
    return static_cast<std::size_t>(provisionals_ctr_->value());
  }
  /// Clients whose state was closed by the idle-timeout sweep
  /// (advance_time); a returning client reopens without a new count.
  std::size_t clients_evicted() const {
    return static_cast<std::size_t>(evicted_ctr_->value());
  }
  /// Pending windows discarded for holding fewer than min_transactions
  /// records (stray beacons, preconnects).
  std::size_t sessions_noise_dropped() const {
    return static_cast<std::size_t>(noise_ctr_->value());
  }
  std::size_t open_clients() const { return open_clients_; }

 private:
  struct ClientState {
    /// Slot lifecycle in the dense table below: `open` means the client
    /// has un-emitted state; `init` means the accumulator has been shaped
    /// to the estimator's feature config (done once, buffers then live for
    /// the process — an evicted client that returns reuses its slot's
    /// capacity instead of reallocating).
    bool open = false;
    bool init = false;
    std::vector<TlsRecord> pending;  // in-progress session, POD records
    double last_start_s = -1e18;     // latest transaction start seen
    // Live feature state over pending[0..acc_synced). Records are appended
    // POD-cheap and folded in arrival order ahead of the verdict: once the
    // boundary scan has settled kFoldBlock records past acc_synced (no
    // later cut can fall below scan.settled()), they fold in one block —
    // one cache-cold visit to the accumulator per block, not per record.
    // A verdict then folds only what is left: a burst cut at k folds
    // [acc_synced, k), an eviction the unsettled tail plus less than one
    // block. A provisional estimate folds everything pending; when a
    // later cut falls below that point, the head is re-folded into
    // head_acc_. Bit-identical in every case, since snapshots are
    // functions of the fed multiset.
    TlsFeatureAccumulator acc;
    std::size_t acc_synced = 0;
    // Incremental boundary detection over `pending` (see
    // IncrementalBoundaryScan) — byte-identical splits to re-running the
    // batch heuristic per arrival, at O(burst) per record.
    IncrementalBoundaryScan scan;
  };

  /// Settled records folded into a client's accumulator at a time.
  static constexpr std::size_t kFoldBlock = 16;

  /// Fold pending[acc_synced, end) into the accumulator.
  void fold_to(ClientState& state, std::size_t end);
  /// Classify and report `recs` (acc must already mirror them), resolving
  /// client/SNI strings from the pools into reused emission scratch.
  void emit_records(util::StringPool::Ref client_ref,
                    std::span<const TlsRecord> recs,
                    const TlsFeatureAccumulator& acc, double detected_s);
  /// Emit the client's whole pending window, then reset it for the next
  /// session (buffer capacity and accumulator storage are kept).
  void emit_pending(util::StringPool::Ref client_ref, ClientState& state,
                    double detected_s);

  const QoeEstimator* estimator_;
  ViewCallback on_session_;
  ProvisionalCallback on_provisional_;
  MonitorConfig config_;
  // Interning pools: owned in standalone use, the shard's in engine use.
  util::StringPool owned_clients_;
  util::StringPool owned_snis_;
  const util::StringPool* client_pool_ = &owned_clients_;
  const util::StringPool* sni_pool_ = &owned_snis_;
  bool external_pools_ = false;
  // Dense table indexed by client ref: interner refs are sequential pool
  // indices, so the per-record lookup is one bounds check + array index —
  // no hashing, no probing, and advance_time() sweeps contiguously.
  std::vector<ClientState> clients_;
  std::size_t open_clients_ = 0;
  // Reporting counters: standalone monitors count into their own
  // instruments; bind_telemetry() repoints these at registry-backed ones
  // so every layer shares one metrics plane. Counter updates are single
  // relaxed atomics — the observe hot path stays allocation- and
  // lock-free either way.
  telemetry::Counter own_sessions_;
  telemetry::Counter own_provisionals_;
  telemetry::Counter own_evicted_;
  telemetry::Counter own_noise_;
  telemetry::Counter* sessions_ctr_ = &own_sessions_;
  telemetry::Counter* provisionals_ctr_ = &own_provisionals_;
  telemetry::Counter* evicted_ctr_ = &own_evicted_;
  telemetry::Counter* noise_ctr_ = &own_noise_;
  // Scratch reused across emits/provisionals (observe is single-threaded
  // per monitor). emit_txns_ only ever grows, so element string capacity
  // survives.
  std::vector<double> feature_scratch_;
  std::vector<double> proba_scratch_;
  // A cut's head, re-folded when a provisional snapshot had folded the
  // live accumulator past the cut.
  TlsFeatureAccumulator head_acc_;
  trace::TlsLog emit_txns_;         // high-water materialization buffer
};

}  // namespace droppkt::core
