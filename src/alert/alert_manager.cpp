#include "alert/alert_manager.hpp"

#include "util/expect.hpp"

namespace droppkt::alert {

namespace {

void validate(const AlertThresholds& t) {
  DROPPKT_EXPECT(t.raise_rate > 0.0 && t.raise_rate < 1.0,
                 "AlertManager: raise_rate must be in (0,1)");
  DROPPKT_EXPECT(t.clear_rate >= 0.0 && t.clear_rate <= t.raise_rate,
                 "AlertManager: clear_rate must be in [0, raise_rate]");
  DROPPKT_EXPECT(t.clear_cooldown_s >= 0.0,
                 "AlertManager: clear_cooldown_s must be >= 0");
}

}  // namespace

AlertManager::AlertManager(ManagerConfig config)
    : config_(std::move(config)) {
  validate(config_.defaults);
  DROPPKT_EXPECT(config_.max_log >= 1, "AlertManager: max_log must be >= 1");
}

const AlertEvent* AlertManager::append(AlertEvent::Kind kind,
                                       const std::string& location,
                                       const LocationWindow& window,
                                       double time_s) {
  AlertEvent ev;
  ev.id = next_id_++;
  ev.kind = kind;
  ev.location = location;
  ev.time_s = time_s;
  ev.rate_low = window.interval.low;
  ev.rate_high = window.interval.high;
  ev.effective_sessions = window.effective_sessions;
  log_.push_back(std::move(ev));
  while (log_.size() > config_.max_log) log_.pop_front();
  return &log_.back();
}

const AlertEvent* AlertManager::update(const std::string& location,
                                       const LocationWindow& window,
                                       double time_s) {
  DROPPKT_EXPECT(!location.empty(),
                 "AlertManager: location must be non-empty");
  const AlertThresholds& t = config_.defaults;
  const auto it = states_.find(location);

  if (it == states_.end()) {
    // `degraded` already folds in the detector's evidence floor; the
    // manager re-tests the rate against its own raise threshold, which
    // may be stricter or laxer than the detector's alert rate.
    const bool raise_now =
        window.degraded && window.interval.low > t.raise_rate;
    if (!raise_now) return nullptr;
    states_.emplace(location, State{});
    ++total_raised_;
    return append(AlertEvent::Kind::kRaised, location, window, time_s);
  }

  // Raised: decide between staying raised, starting/continuing the clear
  // cooldown, or clearing.
  State& st = it->second;
  const bool healthy = window.interval.low <= t.clear_rate;
  if (!healthy) {
    st.healthy_since_s = -1.0;  // still (or again) degraded; reset cooldown
    return nullptr;
  }
  if (st.healthy_since_s < 0.0) st.healthy_since_s = time_s;
  if (time_s - st.healthy_since_s >= t.clear_cooldown_s) {
    ++total_cleared_;
    const AlertEvent* ev =
        append(AlertEvent::Kind::kCleared, location, window, time_s);
    states_.erase(it);
    return ev;
  }
  return nullptr;
}

}  // namespace droppkt::alert
