#include "alert/pipeline.hpp"

#include <algorithm>
#include <limits>

#include "util/expect.hpp"

namespace droppkt::alert {

namespace {

constexpr double kNeverSeen = -std::numeric_limits<double>::infinity();

/// The total merge order: time, then client (distinct clients never need a
/// further tie-break; one client's transitions keep their lane order via
/// stable sort, because a client lives on exactly one shard).
bool merge_before(const VerdictTransition& a, const VerdictTransition& b) {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  return a.client < b.client;
}

}  // namespace

std::string default_location_of(std::string_view client) {
  const auto slash = client.find('/');
  if (slash == std::string_view::npos) return std::string(client);
  return std::string(client.substr(0, slash));
}

AlertPipeline::AlertPipeline(AlertPipelineConfig config)
    : config_(std::move(config)),
      detector_(config_.detector),
      manager_(config_.manager) {
  if (!config_.location_of) config_.location_of = default_location_of;
}

AlertPipeline::~AlertPipeline() = default;

void AlertPipeline::bind(std::size_t num_shards) {
  DROPPKT_EXPECT(num_shards >= 1, "AlertPipeline: need at least one shard");
  DROPPKT_EXPECT(filters_.empty(),
                 "AlertPipeline: bind() must be called exactly once "
                 "(use a fresh pipeline per engine)");
  filters_.assign(num_shards, SessionAlertFilter(config_.filter));
  const util::MutexLock lock(mutex_);
  lane_buffers_.resize(num_shards);
  for (auto& lane : lane_buffers_) lane.watermark_s = kNeverSeen;
  merged_up_to_s_ = kNeverSeen;
}

void AlertPipeline::bind_telemetry(telemetry::MetricRegistry& registry) {
  const util::MutexLock lock(mutex_);
  DROPPKT_EXPECT(transitions_ctr_->value() == 0 && manager_.total_raised() == 0,
                 "AlertPipeline: telemetry must be bound before any event");
  transitions_ctr_ = &registry.counter("alert.transitions");
  suppressed_ctr_ = &registry.counter("alert.suppressed");
  raised_ctr_ = &registry.counter("alert.raised");
  cleared_ctr_ = &registry.counter("alert.cleared");
  locations_evicted_ctr_ = &registry.counter("alert.locations_evicted");
  open_alerts_gauge_ = &registry.gauge("alert.open_alerts");
  tracked_locations_gauge_ = &registry.gauge("alert.tracked_locations");
}

void AlertPipeline::note_update(const AlertEvent* event) {
  if (event == nullptr) return;
  if (event->kind == AlertEvent::Kind::kRaised) {
    raised_ctr_->inc();
  } else {
    cleared_ctr_->inc();
  }
}

void AlertPipeline::enqueue(std::size_t shard, VerdictTransition t,
                            bool at_close) {
  transitions_ctr_->inc();
  Pending p;
  p.location = config_.location_of(t.client);
  p.transition = std::move(t);
  const util::MutexLock lock(mutex_);
  LaneBuffers& lane = lane_buffers_[shard];
  (at_close ? lane.at_close : lane.buffer).push_back(std::move(p));
}

void AlertPipeline::on_provisional(std::size_t shard,
                                   const core::ProvisionalEstimate& estimate) {
  DROPPKT_EXPECT(shard < filters_.size(), "AlertPipeline: shard out of range");
  // The filter is lane-local state touched only by the shard's own worker;
  // no lock until a transition survives hysteresis.
  FilterOutcome out = filters_[shard].on_provisional(estimate);
  if (out.suppressed) suppressed_ctr_->inc();
  if (out.transition) {
    enqueue(shard, std::move(*out.transition), /*at_close=*/false);
  }
}

void AlertPipeline::on_session(std::size_t shard,
                               const core::MonitoredSessionView& session,
                               bool at_close) {
  DROPPKT_EXPECT(shard < filters_.size(), "AlertPipeline: shard out of range");
  VerdictTransition t = filters_[shard].on_session(
      session.client, session.predicted_class, session.confidence,
      session.detected_s);
  enqueue(shard, std::move(t), at_close);
}

void AlertPipeline::on_watermark(std::size_t shard, double watermark_s) {
  DROPPKT_EXPECT(shard < filters_.size(), "AlertPipeline: shard out of range");
  const util::MutexLock lock(mutex_);
  lane_buffers_[shard].watermark_s = watermark_s;
  // Every lane receives the same broadcast sequence; recording shard 0's
  // arrivals records it exactly once, in order.
  if (shard == 0) pending_sweeps_.push_back(watermark_s);
  double min_w = lane_buffers_[0].watermark_s;
  for (const auto& lane : lane_buffers_) {
    min_w = std::min(min_w, lane.watermark_s);
  }
  if (min_w > merged_up_to_s_) merge_and_apply(min_w);
}

void AlertPipeline::merge_and_apply(double up_to_s) {
  // Every transition with time < up_to_s is already buffered: each lane
  // has acknowledged a watermark >= up_to_s, and a shard's later events
  // carry times at or after its acknowledged watermark.
  std::vector<Pending> batch;
  for (auto& lane : lane_buffers_) {
    auto& buf = lane.buffer;
    auto split = buf.begin();
    while (split != buf.end() && split->transition.time_s < up_to_s) ++split;
    batch.insert(batch.end(), std::make_move_iterator(buf.begin()),
                 std::make_move_iterator(split));
    buf.erase(buf.begin(), split);
  }
  apply_batch(std::move(batch), up_to_s);
}

void AlertPipeline::apply_batch(std::vector<Pending> batch, double up_to_s) {
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Pending& a, const Pending& b) {
                     return merge_before(a.transition, b.transition);
                   });
  // Interleave lifecycle sweeps at the broadcast watermark instants so a
  // cooldown clear fires at the same (shard-count-independent) time no
  // matter how releases batched up.
  auto next = batch.begin();
  while (!pending_sweeps_.empty() && pending_sweeps_.front() <= up_to_s) {
    const double sweep_s = pending_sweeps_.front();
    pending_sweeps_.pop_front();
    while (next != batch.end() && next->transition.time_s < sweep_s) {
      apply_transition(*next);
      ++next;
    }
    sweep(sweep_s);
  }
  for (; next != batch.end(); ++next) apply_transition(*next);
  merged_up_to_s_ = std::max(merged_up_to_s_, up_to_s);
  open_alerts_gauge_->set(manager_.open_alerts());
  tracked_locations_gauge_->set(detector_.tracked_locations());
}

void AlertPipeline::apply_transition(const Pending& p) {
  const VerdictTransition& t = p.transition;
  if (config_.on_transition) config_.on_transition(t, p.location);
  if (t.from_class != kNoVerdict) {
    detector_.retract(p.location, t.time_s, t.prev_time_s,
                      /*low_qoe=*/t.from_class == 0);
  }
  detector_.observe(p.location, t.time_s, /*low_qoe=*/t.to_class == 0);
  note_update(manager_.update(p.location,
                              detector_.window(p.location, t.time_s),
                              t.time_s));
}

void AlertPipeline::sweep(double time_s) {
  for (const auto& [location, window] : detector_.snapshot_at(time_s)) {
    note_update(manager_.update(location, window, time_s));
  }
  if (config_.evict_below_weight > 0.0) {
    // The keep-predicate runs synchronously inside evict_stale while the
    // caller holds mutex_; aliasing the guarded member through a local
    // reference keeps the lambda's body checkable (thread-safety analysis
    // examines lambdas without the enclosing REQUIRES context).
    AlertManager& mgr = manager_;
    locations_evicted_ctr_->add(detector_.evict_stale(
        time_s, config_.evict_below_weight,
        [&mgr](const std::string& loc) { return mgr.is_raised(loc); }));
  }
}

void AlertPipeline::on_finish() {
  const util::MutexLock lock(mutex_);
  if (finished_) return;
  finished_ = true;
  // Tail flush: everything still buffered, plus the engine-shutdown
  // sessions that had no watermark position. Concatenating buffer before
  // at_close per lane keeps each client's internal order (a client's
  // at_close verdict never precedes its buffered transitions in time).
  std::vector<Pending> batch;
  for (auto& lane : lane_buffers_) {
    batch.insert(batch.end(),
                 std::make_move_iterator(lane.buffer.begin()),
                 std::make_move_iterator(lane.buffer.end()));
    lane.buffer.clear();
    batch.insert(batch.end(),
                 std::make_move_iterator(lane.at_close.begin()),
                 std::make_move_iterator(lane.at_close.end()));
    lane.at_close.clear();
  }
  // Close at the latest instant any buffered evidence or pending sweep
  // refers to — a FINITE time, covering everything left (so the drain is
  // total, exactly as an infinite bound would be) while keeping
  // merged_up_to_s_ usable as the evaluation time for post-shutdown
  // location snapshots (at +inf every window decays to vacuous).
  double up_to_s = merged_up_to_s_;
  for (const Pending& p : batch) {
    up_to_s = std::max(up_to_s, p.transition.time_s);
  }
  if (!pending_sweeps_.empty()) {
    up_to_s = std::max(up_to_s, pending_sweeps_.back());
  }
  apply_batch(std::move(batch), up_to_s);
}

engine::AlertCounts AlertPipeline::counts() const {
  // Every field is a relaxed-atomic telemetry counter now (raise/clear
  // are counted where manager_.update reports them), so a stats snapshot
  // no longer contends with the merge mutex.
  engine::AlertCounts c;
  c.transitions = transitions_ctr_->value();
  c.suppressed = suppressed_ctr_->value();
  c.alerts_raised = raised_ctr_->value();
  c.alerts_cleared = cleared_ctr_->value();
  return c;
}

std::vector<AlertEvent> AlertPipeline::log_snapshot() const {
  const util::MutexLock lock(mutex_);
  return {manager_.log().begin(), manager_.log().end()};
}

std::size_t AlertPipeline::open_alerts() const {
  const util::MutexLock lock(mutex_);
  return manager_.open_alerts();
}

std::size_t AlertPipeline::tracked_locations() const {
  const util::MutexLock lock(mutex_);
  return detector_.tracked_locations();
}

std::size_t AlertPipeline::locations_evicted() const {
  return static_cast<std::size_t>(locations_evicted_ctr_->value());
}

double AlertPipeline::merged_up_to_s() const {
  const util::MutexLock lock(mutex_);
  return merged_up_to_s_;
}

std::vector<std::pair<std::string, LocationWindow>>
AlertPipeline::location_snapshot() const {
  const util::MutexLock lock(mutex_);
  return detector_.snapshot_at(merged_up_to_s_);
}

std::vector<LocationWindow> AlertPipeline::location_horizon(
    const std::string& location, double horizon_s, std::size_t steps) const {
  const util::MutexLock lock(mutex_);
  return detector_.horizon_curve(location, merged_up_to_s_, horizon_s, steps);
}

}  // namespace droppkt::alert
