#include "core/monitor.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace droppkt::core {

StreamingMonitor::StreamingMonitor(ViewSinkTag, const QoeEstimator& estimator,
                                   ViewCallback on_session,
                                   MonitorConfig config)
    : estimator_(&estimator),
      on_session_(std::move(on_session)),
      config_(config),
      head_acc_(estimator.make_accumulator()) {
  DROPPKT_EXPECT(static_cast<bool>(on_session_),
                 "StreamingMonitor: callback must be callable");
  DROPPKT_EXPECT(estimator.trained(),
                 "StreamingMonitor: estimator must be trained");
  DROPPKT_EXPECT(config_.client_idle_timeout_s > 0.0,
                 "StreamingMonitor: idle timeout must be positive");
  DROPPKT_EXPECT(config_.session_id.window_s > 0.0,
                 "SessionIdParams: W must be > 0");
  DROPPKT_EXPECT(config_.session_id.delta_min >= 0.0 &&
                     config_.session_id.delta_min <= 1.0,
                 "SessionIdParams: delta_min must be in [0,1]");
  feature_scratch_.resize(estimator_->feature_count());
  proba_scratch_.resize(static_cast<std::size_t>(kNumQoeClasses));
}

void StreamingMonitor::use_external_pools(const util::StringPool* client_pool,
                                          const util::StringPool* sni_pool) {
  DROPPKT_EXPECT(client_pool != nullptr && sni_pool != nullptr,
                 "StreamingMonitor: external pools must be non-null");
  DROPPKT_EXPECT(clients_.empty() && sessions_reported() == 0,
                 "StreamingMonitor: pools must be set before the first record");
  client_pool_ = client_pool;
  sni_pool_ = sni_pool;
  external_pools_ = true;
}

void StreamingMonitor::bind_telemetry(const MonitorMetrics& metrics) {
  DROPPKT_EXPECT(metrics.sessions != nullptr && metrics.provisionals != nullptr &&
                     metrics.clients_evicted != nullptr &&
                     metrics.sessions_noise_dropped != nullptr,
                 "StreamingMonitor: telemetry counters must be non-null");
  DROPPKT_EXPECT(clients_.empty() && sessions_reported() == 0,
                 "StreamingMonitor: telemetry must be bound before the first "
                 "record");
  sessions_ctr_ = metrics.sessions;
  provisionals_ctr_ = metrics.provisionals;
  evicted_ctr_ = metrics.clients_evicted;
  noise_ctr_ = metrics.sessions_noise_dropped;
}

void StreamingMonitor::set_provisional_callback(
    ProvisionalCallback on_provisional) {
  on_provisional_ = std::move(on_provisional);
}

void StreamingMonitor::fold_to(ClientState& state, std::size_t end) {
  DROPPKT_ASSERT(state.acc_synced <= end && end <= state.pending.size(),
                 "StreamingMonitor: fold range out of the pending window");
  for (std::size_t i = state.acc_synced; i < end; ++i) {
    const TlsRecord& r = state.pending[i];
    state.acc.observe(r.start_s, r.end_s, r.ul_bytes, r.dl_bytes);
  }
  state.acc_synced = end;
}

void StreamingMonitor::emit_records(util::StringPool::Ref client_ref,
                                    std::span<const TlsRecord> recs,
                                    const TlsFeatureAccumulator& acc,
                                    double detected_s) {
  if (recs.size() < config_.min_transactions) {
    noise_ctr_->inc();
    return;
  }
  DROPPKT_ASSERT(acc.transactions() == recs.size(),
                 "StreamingMonitor: accumulator out of sync with emission");
  // Classification is one snapshot + forest vote into reused scratch — no
  // re-extraction, no allocation; bit-identical to predict() over the
  // materialized log.
  const int predicted =
      estimator_->predict_into(acc, feature_scratch_, proba_scratch_);
  const double confidence =
      proba_scratch_[static_cast<std::size_t>(predicted)];
  double end_s = recs.front().end_s;
  for (const TlsRecord& r : recs) end_s = std::max(end_s, r.end_s);

  // Materialize owning strings into grow-only scratch: emit_txns_ keeps
  // every element's sni capacity across sessions, so in steady state the
  // emission itself allocates nothing either. Sinks can opt out and read
  // the interned records straight off the view.
  MonitoredSessionView view;
  if (config_.materialize_transactions) {
    if (emit_txns_.size() < recs.size()) emit_txns_.resize(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      to_transaction(recs[i], *sni_pool_, emit_txns_[i]);
    }
    view.transactions = {emit_txns_.data(), recs.size()};
  }
  sessions_ctr_->inc();
  view.client = client_pool_->view(client_ref);
  view.records = recs;
  view.sni_pool = sni_pool_;
  view.predicted_class = predicted;
  view.confidence = confidence;
  view.start_s = recs.front().start_s;
  view.end_s = end_s;
  view.detected_s = detected_s;
  on_session_(view);
}

void StreamingMonitor::emit_pending(util::StringPool::Ref client_ref,
                                    ClientState& state, double detected_s) {
  fold_to(state, state.pending.size());
  emit_records(client_ref, state.pending, state.acc, detected_s);
  state.pending.clear();
  state.acc.reset();
  state.acc_synced = 0;
  state.scan.reset();
}

void StreamingMonitor::observe(const std::string& client,
                               const trace::TlsTransaction& txn) {
  DROPPKT_EXPECT(!client.empty(), "StreamingMonitor: client must be non-empty");
  DROPPKT_EXPECT(!external_pools_,
                 "StreamingMonitor: string observe() requires owned pools — "
                 "with external pools the producer interns and calls "
                 "observe_ref()");
  const util::StringPool::Ref client_ref = owned_clients_.intern(client);
  observe_ref(client_ref, to_tls_record(txn, owned_snis_));
}

void StreamingMonitor::observe_ref(util::StringPool::Ref client_ref,
                                   const TlsRecord& rec) {
  if (client_ref >= clients_.size()) {
    clients_.resize(static_cast<std::size_t>(client_ref) + 1);
  }
  ClientState& state = clients_[client_ref];
  if (!state.open) {
    if (!state.init) {
      state.acc = estimator_->make_accumulator();
      state.init = true;
    }
    state.open = true;
    state.last_start_s = -1e18;
    ++open_clients_;
  }
  DROPPKT_EXPECT(rec.start_s >= state.last_start_s,
                 "StreamingMonitor: records must arrive in start-time order");

  // Idle gap: the previous session ended long ago.
  if (!state.pending.empty() &&
      rec.start_s - state.last_start_s > config_.client_idle_timeout_s) {
    emit_pending(client_ref, state, rec.start_s);
  }

  state.pending.push_back(rec);
  state.last_start_s = rec.start_s;
  // Per-record hot path, so debug-only: the buffered window must stay
  // start-ordered or the boundary heuristic below silently misfires.
  DROPPKT_ASSERT(state.pending.size() < 2 ||
                     state.pending[state.pending.size() - 2].start_s <=
                         rec.start_s,
                 "StreamingMonitor: pending window lost start order");

  // In-flight QoE: snapshot the live accumulator every N records. This is
  // the early-detection path running online — the session is still open,
  // records may still be clipped short of their eventual totals.
  if (on_provisional_ && config_.provisional_every > 0 &&
      state.pending.size() >= config_.min_transactions &&
      state.pending.size() % config_.provisional_every == 0) {
    fold_to(state, state.pending.size());
    ProvisionalEstimate est;
    est.client = client_pool_->view(client_ref);
    est.transactions_observed = state.pending.size();
    est.predicted_class =
        estimator_->predict_into(state.acc, feature_scratch_, proba_scratch_);
    est.confidence =
        proba_scratch_[static_cast<std::size_t>(est.predicted_class)];
    est.session_start_s = state.pending.front().start_s;
    est.last_activity_s = rec.start_s;
    provisionals_ctr_->inc();
    on_provisional_(est);
  }

  // Online boundary detection: the burst+fresh-server heuristic over the
  // buffered window, maintained incrementally — per record this costs
  // O(records within W), not O(window x burst). A boundary at index k
  // becomes detectable once its burst (the W-second look-ahead) has
  // arrived in the buffer; at that point everything before k is a
  // completed session.
  const std::size_t k = state.scan.on_append(state.pending,
                                             config_.session_id);
  if (k == 0) {
    // No cut: fold the records the scan has settled, a block at a time.
    const std::size_t settled = state.scan.settled();
    if (settled >= state.acc_synced + kFoldBlock) fold_to(state, settled);
    return;
  }
  // Emit the prefix, then slide the survivors down; the live accumulator
  // restarts from them (acc_synced = 0). Block folds stop at settled(),
  // which no cut undercuts, so unless a provisional snapshot folded
  // records past the cut, the head is completed in place by folding
  // [acc_synced, k); otherwise it is re-folded into head_acc_.
  const TlsFeatureAccumulator* head = &state.acc;
  if (state.acc_synced <= k) {
    fold_to(state, k);
  } else {
    head_acc_.reset();
    for (std::size_t i = 0; i < k; ++i) {
      const TlsRecord& r = state.pending[i];
      head_acc_.observe(r.start_s, r.end_s, r.ul_bytes, r.dl_bytes);
    }
    head = &head_acc_;
  }
  emit_records(client_ref, {state.pending.data(), k}, *head, rec.start_s);
  state.pending.erase(state.pending.begin(),
                      state.pending.begin() + static_cast<std::ptrdiff_t>(k));
  state.acc.reset();
  state.acc_synced = 0;
  state.scan.rebuild(state.pending, config_.session_id);
}

void StreamingMonitor::advance_time(double now_s) {
  for (std::size_t ref = 0; ref < clients_.size(); ++ref) {
    ClientState& state = clients_[ref];
    if (!state.open) continue;
    if (now_s - state.last_start_s > config_.client_idle_timeout_s) {
      if (!state.pending.empty()) {
        emit_pending(static_cast<util::StringPool::Ref>(ref), state, now_s);
      }
      state.open = false;
      --open_clients_;
      evicted_ctr_->inc();
    }
  }
}

void StreamingMonitor::finish() {
  for (std::size_t ref = 0; ref < clients_.size(); ++ref) {
    ClientState& state = clients_[ref];
    if (!state.open) continue;
    if (!state.pending.empty()) {
      emit_pending(static_cast<util::StringPool::Ref>(ref), state,
                   state.last_start_s);
    }
    state.open = false;
  }
  open_clients_ = 0;
}

}  // namespace droppkt::core
