// The proxy feed: one globally time-ordered stream of (client,
// transaction) records, as a transparent proxy would export it. Its text
// form, one feed line per record, is the repo's one on-disk record
// format: droppkt_replay records and replays feed-line files, and
// classify_log reads one session's log from one. The builders below make
// feeds for the benches, tests and examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "has/service_profile.hpp"
#include "trace/records.hpp"

namespace droppkt::engine {

/// One element of the interleaved proxy feed.
struct FeedRecord {
  std::string client;
  trace::TlsTransaction txn;
};

using Feed = std::vector<FeedRecord>;

/// Stable sort by transaction start time (the proxy's export order).
void sort_feed(Feed& feed);

/// Text format of a proxy feed: one tab-separated line per record —
/// client, start_s, end_s, ul_bytes, dl_bytes, http_count, sni — with
/// every number written at full round-trip precision. This is what a
/// Squid-style proxy tails into the ingest engine, so the parser treats
/// every line as untrusted: malformed field counts, bad numbers,
/// oversized fields, or inverted timestamps raise droppkt::ParseError
/// (fuzz/fuzz_feed_line.cpp enforces crash-freedom).
void write_feed_line(const FeedRecord& record, std::ostream& os);
void write_feed(const Feed& feed, std::ostream& os);

/// Longest line parse_feed_line accepts, after stripping one trailing
/// '\r'. A proxy export line is a few hundred bytes; a megabyte "line"
/// is corruption or hostile input.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Parse one feed line. Throws droppkt::ParseError on malformed input.
FeedRecord parse_feed_line(std::string_view line);

/// Parse a whole feed stream (blank lines skipped). Throws ParseError with
/// the 1-based line number on the first malformed line. A line is
/// rejected as soon as it outgrows kMaxLineBytes, so a stream that never
/// sends a newline is read no further than the limit.
Feed read_feed(std::istream& is);

/// Simulation-backed feed: `num_clients` subscribers each stream
/// `sessions_per_client` back-to-back videos of `svc`, with staggered
/// start offsets, merged into proxy export order. Faithful to the paper's
/// traffic model but costs a full player simulation per session — use for
/// correctness tests and examples. Returns the feed and the true session
/// count via `true_sessions` (may be null).
Feed simulated_feed(const has::ServiceProfile& svc, std::size_t num_clients,
                    std::size_t sessions_per_client, std::uint64_t seed,
                    std::size_t* true_sessions = nullptr);

/// Configuration for the cheap synthetic feed used by the throughput bench.
struct SynthFeedConfig {
  std::size_t num_clients = 10000;
  std::size_t sessions_per_client = 2;
  std::size_t txns_per_session = 12;
  /// Gap between a client's sessions; exceed the monitor idle timeout to
  /// exercise both delimitation paths.
  double session_gap_s = 240.0;
  /// Clients start uniformly within this horizon.
  double horizon_s = 3600.0;
  std::uint64_t seed = 20201204;
};

/// Statistically plausible feed without running the player simulator:
/// bursty session opens against fresh server pools, lognormal transaction
/// sizes, chunked mid-session fetches. Orders of magnitude cheaper to
/// generate than simulated_feed(), which is what a million-client
/// throughput bench needs.
Feed synthetic_feed(const SynthFeedConfig& config);

/// Configuration for a feed with a ground-truth location incident — the
/// alerting subsystem's evaluation input.
struct IncidentFeedConfig {
  /// Locations; the last `degraded_locations` of them turn bad at
  /// incident_start_s. Clients are named "<location>/sub-<k>" so the alert
  /// pipeline's default location mapping recovers the location.
  std::size_t num_locations = 10;
  std::size_t degraded_locations = 3;
  std::size_t clients_per_location = 6;
  std::size_t sessions_per_client = 3;
  /// Feed time at which the degraded locations' congestion begins.
  /// Sessions *starting* at or after this at a degraded location stream
  /// through the congested link; earlier sessions are healthy everywhere.
  double incident_start_s = 900.0;
  /// Bandwidth squeeze applied to degraded sessions (fraction removed).
  double congestion = 0.9;
  /// Pre-simulated session pool size per condition. Composition samples
  /// (with replacement) from the pools instead of running the player per
  /// scheduled session, which keeps incident feeds cheap to generate.
  std::size_t pool_sessions = 24;
  /// Idle gap between a client's sessions; must exceed the monitor idle
  /// timeout for timeout-based delimitation.
  double session_gap_s = 240.0;
  /// Deterministic stagger between client start offsets.
  double client_stagger_s = 23.0;
  std::uint64_t seed = 20201204;
};

/// One scheduled session of an incident feed, for metric computation.
struct ScheduledSession {
  std::string client;
  std::string location;
  double start_s = 0.0;
  double end_s = 0.0;  // last transaction end
  /// Streamed through the congested link (degraded location, started at
  /// or after the incident).
  bool degraded = false;
};

/// What actually happened, for scoring detection latency and false alarms.
struct IncidentGroundTruth {
  double incident_start_s = 0.0;
  std::vector<std::string> degraded_locations;  // name order
  std::vector<std::string> healthy_locations;   // name order
  /// All scheduled sessions, feed-start order.
  std::vector<ScheduledSession> sessions;
};

/// Simulation-backed feed with an injected location incident: every client
/// streams pool-sampled sessions; at incident_start_s the degraded
/// locations' new sessions switch to a congested-link pool. Deterministic
/// from the config seed.
Feed incident_feed(const has::ServiceProfile& svc,
                   const IncidentFeedConfig& config,
                   IncidentGroundTruth* truth = nullptr);

}  // namespace droppkt::engine
