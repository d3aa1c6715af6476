#include "alert/location_detector.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace droppkt::alert {

Interval wilson_interval_real(double successes, double trials, double z) {
  DROPPKT_EXPECT(successes >= 0.0 && trials >= 0.0,
                 "wilson_interval: counts must be non-negative");
  DROPPKT_EXPECT(successes <= trials,
                 "wilson_interval: successes cannot exceed trials");
  DROPPKT_EXPECT(z > 0.0, "wilson_interval: z must be positive");
  if (trials == 0.0) return {0.0, 1.0};
  const double n = trials;
  const double p = successes / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

LocationDetector::LocationDetector(DetectorConfig config) : config_(config) {
  DROPPKT_EXPECT(config_.half_life_s > 0.0,
                 "LocationDetector: half_life_s must be positive");
  DROPPKT_EXPECT(config_.window_s > 0.0,
                 "LocationDetector: window_s must be positive");
  DROPPKT_EXPECT(config_.alert_rate > 0.0 && config_.alert_rate < 1.0,
                 "LocationDetector: alert_rate must be in (0,1)");
  DROPPKT_EXPECT(config_.z > 0.0, "LocationDetector: z must be positive");
  DROPPKT_EXPECT(config_.min_effective_sessions >= 0.0,
                 "LocationDetector: min_effective_sessions must be >= 0");
}

double LocationDetector::decay_factor(double dt_s) const {
  if (dt_s <= 0.0) return 1.0;
  return std::exp2(-dt_s / config_.half_life_s);
}

void LocationDetector::roll_forward(State& st, double time_s) const {
  if (config_.window == WindowKind::kDecay) {
    // Tolerate a stale event time (engine-shutdown flushes can surface
    // sessions slightly behind the merge frontier): never roll backward.
    if (time_s > st.as_of_s) {
      const double f = decay_factor(time_s - st.as_of_s);
      st.sessions *= f;
      st.low *= f;
      st.as_of_s = time_s;
    }
  } else {
    const double cutoff = time_s - config_.window_s;
    while (!st.events.empty() && st.events.front().time_s <= cutoff) {
      st.events.pop_front();
    }
  }
}

void LocationDetector::observe(const std::string& location, double time_s,
                               bool low_qoe) {
  DROPPKT_EXPECT(!location.empty(),
                 "LocationDetector: location must be non-empty");
  State& st = locations_[location];
  roll_forward(st, time_s);
  if (config_.window == WindowKind::kDecay) {
    st.sessions += 1.0;
    if (low_qoe) st.low += 1.0;
  } else {
    st.events.push_back({time_s, low_qoe});
  }
}

void LocationDetector::retract(const std::string& location, double time_s,
                               double evidence_time_s, bool low_qoe) {
  DROPPKT_EXPECT(evidence_time_s <= time_s,
                 "LocationDetector: retraction cannot precede its evidence");
  const auto it = locations_.find(location);
  if (it == locations_.end()) return;
  State& st = it->second;
  roll_forward(st, time_s);
  if (config_.window == WindowKind::kDecay) {
    const double w = decay_factor(time_s - evidence_time_s);
    // Clamp at zero: retraction weight is computed independently of the
    // accumulated product of per-event factors, so the last retraction of
    // a location's evidence can undershoot by an ulp or two.
    st.sessions = std::max(0.0, st.sessions - w);
    if (low_qoe) st.low = std::max(0.0, st.low - w);
    st.low = std::min(st.low, st.sessions);
  } else {
    for (auto ev = st.events.begin(); ev != st.events.end(); ++ev) {
      if (ev->time_s == evidence_time_s && ev->low == low_qoe) {
        st.events.erase(ev);
        break;
      }
    }
  }
}

LocationWindow LocationDetector::evaluate(const State& st,
                                          double time_s) const {
  LocationWindow out;
  if (config_.window == WindowKind::kDecay) {
    const double f = decay_factor(time_s - st.as_of_s);
    out.effective_sessions = st.sessions * f;
    out.effective_low = st.low * f;
  } else {
    const double cutoff = time_s - config_.window_s;
    for (const auto& ev : st.events) {
      if (ev.time_s <= cutoff) continue;
      out.effective_sessions += 1.0;
      if (ev.low) out.effective_low += 1.0;
    }
  }
  out.interval =
      wilson_interval_real(out.effective_low, out.effective_sessions, config_.z);
  out.degraded = out.effective_sessions >= config_.min_effective_sessions &&
                 out.interval.low > config_.alert_rate;
  return out;
}

LocationWindow LocationDetector::window(const std::string& location,
                                        double time_s) const {
  const auto it = locations_.find(location);
  if (it == locations_.end()) return {};
  return evaluate(it->second, time_s);
}

std::vector<std::pair<std::string, LocationWindow>> LocationDetector::degraded(
    double time_s) const {
  std::vector<std::pair<std::string, LocationWindow>> out;
  for (const auto& [name, st] : locations_) {
    auto w = evaluate(st, time_s);
    if (w.degraded) out.emplace_back(name, w);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.interval.low != b.second.interval.low) {
      return a.second.interval.low > b.second.interval.low;
    }
    if (a.second.effective_sessions != b.second.effective_sessions) {
      return a.second.effective_sessions > b.second.effective_sessions;
    }
    return a.first < b.first;
  });
  return out;
}

std::vector<std::pair<std::string, LocationWindow>>
LocationDetector::snapshot_at(double time_s) const {
  std::vector<std::pair<std::string, LocationWindow>> out;
  out.reserve(locations_.size());
  for (const auto& [name, st] : locations_) {
    out.emplace_back(name, evaluate(st, time_s));
  }
  return out;
}

std::vector<LocationWindow> LocationDetector::horizon_curve(
    const std::string& location, double from_s, double horizon_s,
    std::size_t steps) const {
  DROPPKT_EXPECT(steps >= 2, "horizon_curve: need at least two steps");
  DROPPKT_EXPECT(horizon_s >= 0.0, "horizon_curve: horizon must be >= 0");
  std::vector<LocationWindow> out;
  out.reserve(steps);
  const auto it = locations_.find(location);
  for (std::size_t i = 0; i < steps; ++i) {
    const double t =
        from_s + horizon_s * static_cast<double>(i) /
                     static_cast<double>(steps - 1);
    if (it == locations_.end()) {
      out.push_back(LocationWindow{});
    } else {
      out.push_back(evaluate(it->second, t));
    }
  }
  return out;
}

std::size_t LocationDetector::evict_stale(
    double time_s, double min_weight,
    const std::function<bool(const std::string&)>& keep) {
  std::size_t dropped = 0;
  for (auto it = locations_.begin(); it != locations_.end();) {
    const auto w = evaluate(it->second, time_s);
    if (w.effective_sessions < min_weight && !(keep && keep(it->first))) {
      it = locations_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace droppkt::alert
