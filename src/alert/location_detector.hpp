// Windowed location-level incident detection — the second stage of the
// alerting pipeline, and the network-level signal the paper's
// introduction motivates: "identify parts of the network that
// underperform in a lightweight manner", so fine-grained collection can
// be targeted there.
//
// Each verdict is a Bernoulli observation of a location's live low-QoE
// rate that either decays exponentially (half-life) or expires from a
// sliding window, and a location is degraded when the Wilson lower bound
// over the *effective* (real-valued) counts credibly exceeds the alert
// rate. The Wilson interval stays honest at the small per-location
// sample sizes a monitoring window yields. A sliding window longer than
// the run counts every verdict once: the whole-run batch view.
//
// Evidence is retractable: when a session's stable verdict flips (see
// SessionAlertFilter), the detector removes the superseded verdict's
// contribution and adds the new one, so each session counts exactly once
// at any instant no matter how often early-horizon noise re-classified it.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace droppkt::alert {

/// Wilson score interval for a binomial proportion at z standard errors.
struct Interval {
  double low = 0.0;
  double high = 1.0;
};

/// Wilson interval over real-valued counts: under decay or a sliding
/// window each observation carries a weight, so "successes" and "trials"
/// are effective sample sizes. Zero trials give the vacuous (0,1).
Interval wilson_interval_real(double successes, double trials,
                              double z = 1.96);

enum class WindowKind {
  /// Exponential decay: an observation's weight halves every half_life_s.
  /// O(1) state per location; old evidence fades smoothly.
  kDecay,
  /// Hard sliding window: observations older than window_s vanish.
  /// O(events-in-window) state per location; old evidence drops sharply.
  kSliding,
};

struct DetectorConfig {
  WindowKind window = WindowKind::kDecay;
  /// Decay mode: time for an observation's weight to halve.
  double half_life_s = 300.0;
  /// Sliding mode: observations older than this are discarded.
  double window_s = 600.0;
  /// Degraded when the Wilson lower bound of the windowed low-QoE rate
  /// exceeds this: the location is credibly degraded, not just unlucky.
  double alert_rate = 0.5;
  double z = 1.96;  // ~95% interval
  /// Locations with fewer effective sessions than this in the window are
  /// never degraded — the windowed analogue of min_sessions.
  double min_effective_sessions = 8.0;
};

/// A location's windowed state at some evaluation time.
struct LocationWindow {
  double effective_sessions = 0.0;  // decayed/windowed trial count
  double effective_low = 0.0;       // decayed/windowed low-QoE count
  Interval interval;                // Wilson interval over the above
  bool degraded = false;
};

/// Sliding/decaying per-location low-QoE rate tracking with a credibility
/// gate. Single-threaded: the alert pipeline drives it from behind one
/// mutex, in deterministic event order, which makes every float in here
/// reproducible bit-for-bit.
///
/// Event times must be fed non-decreasing per location (the pipeline's
/// watermark merge guarantees a globally non-decreasing order).
class LocationDetector {
 public:
  explicit LocationDetector(DetectorConfig config = {});

  /// Record one verdict for a location: a session currently believed to be
  /// low QoE (or not) as of `time_s`.
  void observe(const std::string& location, double time_s, bool low_qoe);

  /// Remove a previously observed verdict whose evidence was recorded at
  /// `evidence_time_s`, as of `time_s` (>= evidence_time_s). Decay mode
  /// subtracts the decayed weight; sliding mode erases the matching event
  /// if it has not already expired. A retraction of evidence that has
  /// fully aged out is a no-op.
  void retract(const std::string& location, double time_s,
               double evidence_time_s, bool low_qoe);

  /// The location's windowed counts, interval, and degraded verdict as of
  /// `time_s` (>= every previously fed event time for that location).
  /// Unseen locations report zero evidence, a vacuous (0,1) interval, and
  /// degraded = false. Const: evaluation never mutates stored state, so
  /// evaluating at time t then feeding an event at t is well-defined.
  LocationWindow window(const std::string& location, double time_s) const;

  /// Locations currently degraded as of `time_s`, worst (highest lower
  /// bound) first; ties broken by effective sessions desc, then name asc,
  /// so the order is total and stable run-to-run.
  std::vector<std::pair<std::string, LocationWindow>> degraded(
      double time_s) const;

  /// Every tracked location's window evaluated at `time_s`, in name
  /// order — the sweep input for lifecycle evaluation (clears must fire
  /// for locations that stopped producing events, which degraded() would
  /// hide). `time_s` may lie in the FUTURE of the last fed event:
  /// evaluation is a const pure function of the stored evidence (decay /
  /// window expiry applied at evaluation time, never mutating state), so
  /// projecting forward answers "what will this location's window look
  /// like at t if no further verdicts arrive" — the basis of the
  /// dashboard horizon curves.
  std::vector<std::pair<std::string, LocationWindow>> snapshot_at(
      double time_s) const;

  /// One location's projected window at `steps` evenly spaced times across
  /// [from_s, from_s + horizon_s] (inclusive endpoints; steps >= 2): the
  /// horizon curve a dashboard renders to show how fast a degraded
  /// location's evidence decays toward its clear threshold. Unseen
  /// locations yield all-zero windows.
  std::vector<LocationWindow> horizon_curve(const std::string& location,
                                            double from_s, double horizon_s,
                                            std::size_t steps) const;

  const DetectorConfig& config() const { return config_; }
  std::size_t tracked_locations() const { return locations_.size(); }

  /// Drop locations whose windowed evidence has decayed/expired below
  /// `min_weight` as of `time_s` — the eviction hook that bounds state on
  /// long feeds. Locations for which `keep` returns true survive
  /// regardless (the pipeline pins locations with an open alert, whose
  /// lifecycle still needs sweep evaluations). Returns the number of
  /// locations dropped.
  std::size_t evict_stale(double time_s, double min_weight = 1e-6,
                          const std::function<bool(const std::string&)>& keep =
                              {});

 private:
  struct SlidingEvent {
    double time_s = 0.0;
    bool low = false;
  };
  struct State {
    // Decay mode: counts decayed to `as_of_s`.
    double sessions = 0.0;
    double low = 0.0;
    double as_of_s = 0.0;
    // Sliding mode: in-window events, oldest first.
    std::deque<SlidingEvent> events;
  };

  double decay_factor(double dt_s) const;
  /// Decay `st` in place up to `time_s` (decay mode) or expire events
  /// older than the window (sliding mode).
  void roll_forward(State& st, double time_s) const;
  LocationWindow evaluate(const State& st, double time_s) const;

  DetectorConfig config_;
  // Ordered map: degraded() iterates it, and a deterministic iteration
  // order is part of the bit-identical-alert-sequence contract.
  std::map<std::string, State> locations_;
};

}  // namespace droppkt::alert
