// Alert lifecycle — the operator-facing stage of the alerting pipeline.
//
// The detector answers "is this location credibly degraded right now";
// the manager turns that instantaneous predicate into incidents an
// operator can act on: a raise/clear state machine per location with
// asymmetric thresholds (clear below a lower rate than raise, so the
// boundary doesn't chatter), a clear cooldown (the location must look
// healthy continuously for cooldown_s before the incident closes), and a
// bounded append-only log of raise/clear events for sinks to read.
//
// Thresholds can differ per service class: a premium live-sports service
// may warrant raising at a 30% low-QoE rate while a background-download
// heavy one tolerates 60%. The manager maps a location to its service via
// a caller-provided classifier over the location name.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "alert/location_detector.hpp"

namespace droppkt::alert {

/// Raise/clear decision thresholds for one service class.
struct AlertThresholds {
  /// Raise when the Wilson lower bound of the windowed low-QoE rate
  /// exceeds this (and effective sessions meet the detector's floor).
  double raise_rate = 0.5;
  /// An open alert starts clearing only once the lower bound falls to or
  /// below this. Must be <= raise_rate; the gap is the flap margin.
  double clear_rate = 0.35;
  /// The location must look healthy (lower bound <= clear_rate, or
  /// evidence below the floor) continuously this long before the alert
  /// clears. 0 clears on the first healthy evaluation.
  double clear_cooldown_s = 300.0;
};

struct ManagerConfig {
  AlertThresholds defaults;
  /// Overrides keyed by service name; a location resolves to a service via
  /// service_of. Locations whose service has no entry use `defaults`.
  std::map<std::string, AlertThresholds> per_service;
  /// Maps a location to its service-class name (e.g. parse a "svc2:cell-7"
  /// prefix). Unset: every location uses `defaults`.
  std::function<std::string(std::string_view location)> service_of;
  /// Maximum retained log entries; the oldest are dropped beyond this.
  std::size_t max_log = 4096;
};

struct AlertEvent {
  enum class Kind : std::uint8_t { kRaised, kCleared };
  std::uint64_t id = 0;  // monotone across the run, never reused
  Kind kind = Kind::kRaised;
  std::string location;
  double time_s = 0.0;
  /// Windowed evidence at the transition: the rate interval and effective
  /// sample size that justified it.
  double rate_low = 0.0;   // Wilson lower bound
  double rate_high = 0.0;  // Wilson upper bound
  double effective_sessions = 0.0;
};

/// Per-location incident state machine over detector evaluations.
/// Single-threaded, like the detector: driven in deterministic event order
/// from behind the pipeline's mutex.
class AlertManager {
 public:
  explicit AlertManager(ManagerConfig config = {});

  /// Evaluate one location at `time_s` given its current windowed
  /// evidence. Returns the event if this evaluation raised or cleared an
  /// alert, nullptr otherwise (the pointer aliases the log; valid until
  /// the next update). Evaluation times must be non-decreasing.
  const AlertEvent* update(const std::string& location,
                           const LocationWindow& window, double time_s);

  bool is_raised(const std::string& location) const {
    return states_.contains(location);
  }
  std::size_t open_alerts() const { return states_.size(); }
  std::uint64_t total_raised() const { return total_raised_; }
  std::uint64_t total_cleared() const { return total_cleared_; }

  /// The bounded append-only event log, oldest first. Entries beyond
  /// config.max_log have been dropped from the front; ids reveal the gap.
  const std::deque<AlertEvent>& log() const { return log_; }

  /// Thresholds a location resolves to (service override or defaults).
  const AlertThresholds& thresholds_for(std::string_view location) const;

 private:
  /// A raised location's state; a location without an entry is not
  /// raised.
  struct State {
    /// Time the location first looked healthy; reset on any degraded
    /// evaluation. Negative: not currently clearing.
    double healthy_since_s = -1.0;
  };

  const AlertEvent* append(AlertEvent::Kind kind, const std::string& location,
                           const LocationWindow& window, double time_s);

  ManagerConfig config_;
  // Raised locations only: an entry is inserted on raise and erased on
  // clear, so the map stays bounded by the open alerts however many
  // locations are evaluated. Ordered for the same reason as the
  // detector's map: iteration order must not depend on hash layout.
  std::map<std::string, State> states_;
  std::deque<AlertEvent> log_;
  std::uint64_t next_id_ = 1;
  std::uint64_t total_raised_ = 0;
  std::uint64_t total_cleared_ = 0;
};

}  // namespace droppkt::alert
