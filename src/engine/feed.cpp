#include "engine/feed.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "core/dataset_builder.hpp"
#include "has/player.hpp"
#include "has/video_catalog.hpp"
#include "net/link_model.hpp"
#include "net/trace_generator.hpp"
#include "trace/connection_manager.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::engine {

void sort_feed(Feed& feed) {
  std::stable_sort(feed.begin(), feed.end(),
                   [](const FeedRecord& a, const FeedRecord& b) {
                     return a.txn.start_s < b.txn.start_s;
                   });
}

namespace {

constexpr std::size_t kMaxFieldBytes = 64 * 1024;

[[noreturn]] void feed_fail(const std::string& what) {
  throw ParseError("parse_feed_line: " + what);
}

double parse_finite(std::string_view field, const char* what) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(field.data(),
                                         field.data() + field.size(), v);
  if (ec != std::errc() || ptr != field.data() + field.size() ||
      !std::isfinite(v)) {
    feed_fail(std::string(what) + " is not a finite number: '" +
              std::string(field) + "'");
  }
  return v;
}

std::uint64_t parse_count(std::string_view field, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(field.data(),
                                         field.data() + field.size(), v);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    feed_fail(std::string(what) + " is not a non-negative integer: '" +
              std::string(field) + "'");
  }
  return v;
}

/// std::getline with a ceiling: reads the next line (without its '\n')
/// into `line`, and throws once the line holds more than any feed line
/// parse_feed_line accepts (kMaxLineBytes plus a CRLF's '\r'), before
/// buffering the rest of it. Returns false at the end of the stream.
bool getline_bounded(std::istream& is, std::string& line,
                     std::size_t line_no) {
  using traits = std::istream::traits_type;
  line.clear();
  std::streambuf* in = is.rdbuf();
  if (in == nullptr) return false;
  for (;;) {
    const traits::int_type c = in->sbumpc();
    if (traits::eq_int_type(c, traits::eof())) {
      is.setstate(std::ios::eofbit);
      return !line.empty();
    }
    if (traits::to_char_type(c) == '\n') return true;
    if (line.size() > kMaxLineBytes) {
      throw ParseError("read_feed: line " + std::to_string(line_no) +
                       ": line exceeds the size limit");
    }
    line.push_back(traits::to_char_type(c));
  }
}

}  // namespace

void write_feed_line(const FeedRecord& record, std::ostream& os) {
  DROPPKT_EXPECT(
      record.client.find_first_of("\t\n\r") == std::string::npos &&
          record.txn.sni.find_first_of("\t\n\r") == std::string::npos,
      "write_feed_line: client/sni must not contain tab/newline/CR");
  const auto old_prec =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << record.client << '\t' << record.txn.start_s << '\t' << record.txn.end_s
     << '\t' << record.txn.ul_bytes << '\t' << record.txn.dl_bytes << '\t'
     << record.txn.http_count << '\t' << record.txn.sni << '\n';
  os.precision(old_prec);
}

void write_feed(const Feed& feed, std::ostream& os) {
  for (const auto& r : feed) write_feed_line(r, os);
}

FeedRecord parse_feed_line(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.size() > kMaxLineBytes) feed_fail("line exceeds the size limit");
  // After stripping the CRLF terminator no carriage return may remain;
  // allowing one would make write_feed_line(parse_feed_line(x)) lossy.
  if (line.find('\r') != std::string_view::npos) {
    feed_fail("stray carriage return inside line");
  }

  std::array<std::string_view, 7> fields;
  std::size_t n_fields = 0;
  while (true) {
    const std::size_t tab = line.find('\t');
    const std::string_view field = line.substr(0, tab);
    if (n_fields == fields.size()) feed_fail("too many fields");
    fields[n_fields++] = field;
    if (tab == std::string_view::npos) break;
    line.remove_prefix(tab + 1);
  }
  if (n_fields != fields.size()) {
    feed_fail("expected 7 tab-separated fields, got " +
              std::to_string(n_fields));
  }

  FeedRecord r;
  if (fields[0].empty()) feed_fail("empty client id");
  if (fields[0].size() > kMaxFieldBytes || fields[6].size() > kMaxFieldBytes) {
    feed_fail("client/sni field exceeds the size limit");
  }
  r.client = std::string(fields[0]);
  r.txn.start_s = parse_finite(fields[1], "start_s");
  r.txn.end_s = parse_finite(fields[2], "end_s");
  r.txn.ul_bytes = parse_finite(fields[3], "ul_bytes");
  r.txn.dl_bytes = parse_finite(fields[4], "dl_bytes");
  const std::uint64_t http = parse_count(fields[5], "http_count");
  r.txn.http_count = static_cast<std::size_t>(http);
  r.txn.sni = std::string(fields[6]);
  if (r.txn.end_s < r.txn.start_s) feed_fail("transaction end precedes start");
  if (r.txn.ul_bytes < 0.0 || r.txn.dl_bytes < 0.0) {
    feed_fail("negative byte counts");
  }
  return r;
}

Feed read_feed(std::istream& is) {
  Feed feed;
  std::string line;
  std::size_t line_no = 0;
  while (getline_bounded(is, line, line_no + 1)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    try {
      feed.push_back(parse_feed_line(line));
    } catch (const ParseError& e) {
      throw ParseError("read_feed: line " + std::to_string(line_no) + ": " +
                       e.what());
    }
  }
  return feed;
}

Feed simulated_feed(const has::ServiceProfile& svc, std::size_t num_clients,
                    std::size_t sessions_per_client, std::uint64_t seed,
                    std::size_t* true_sessions) {
  Feed feed;
  std::size_t truth = 0;
  for (std::size_t c = 0; c < num_clients; ++c) {
    const auto stream = core::build_back_to_back(
        svc, sessions_per_client, seed + 7919 * c);
    truth += stream.num_sessions;
    const std::string client = "client-" + std::to_string(c);
    // Stagger subscribers so the interleaving is non-trivial but
    // deterministic.
    const double offset = 37.0 * static_cast<double>(c);
    for (const auto& t : stream.merged) {
      FeedRecord r;
      r.client = client;
      r.txn = t;
      r.txn.start_s += offset;
      r.txn.end_s += offset;
      feed.push_back(std::move(r));
    }
  }
  sort_feed(feed);
  if (true_sessions != nullptr) *true_sessions = truth;
  return feed;
}

namespace {

/// Simulate `n` sessions over an LTE link with `congestion` of the
/// bandwidth removed, times normalized so each log starts at 0.
std::vector<trace::TlsLog> session_pool(const has::ServiceProfile& svc,
                                        std::size_t n, double congestion,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  net::TraceGenerator gen(rng());
  const auto catalog = has::VideoCatalog::generate(svc.name, 20, rng());
  const has::PlayerSimulator player;
  std::vector<trace::TlsLog> pool;
  pool.reserve(n);
  while (pool.size() < n) {
    auto bw = gen.generate(net::Environment::kLte, 600.0);
    std::vector<net::BandwidthSample> squeezed;
    squeezed.reserve(bw.samples().size());
    for (const auto& s : bw.samples()) {
      squeezed.push_back({s.t_s, s.kbps * (1.0 - congestion)});
    }
    const net::BandwidthTrace trace(std::move(squeezed), bw.duration_s(),
                                    net::Environment::kLte);
    const net::LinkModel link(trace);
    auto playback = player.play(svc, catalog.sample(rng), link,
                                rng.uniform(60.0, 300.0), rng);
    const trace::ConnectionManager conns(svc.connections, rng);
    trace::TlsLog log = conns.collect(playback.http, rng);
    if (log.size() < 3) continue;  // too sparse to survive min_transactions
    double t0 = log.front().start_s;
    for (const auto& t : log) t0 = std::min(t0, t.start_s);
    for (auto& t : log) {
      t.start_s -= t0;
      t.end_s -= t0;
    }
    pool.push_back(std::move(log));
  }
  return pool;
}

}  // namespace

Feed incident_feed(const has::ServiceProfile& svc,
                   const IncidentFeedConfig& config,
                   IncidentGroundTruth* truth) {
  DROPPKT_EXPECT(config.num_locations >= 1 &&
                     config.degraded_locations <= config.num_locations,
                 "incident_feed: degraded_locations must be <= num_locations");
  DROPPKT_EXPECT(config.congestion > 0.0 && config.congestion < 1.0,
                 "incident_feed: congestion must be in (0,1)");
  DROPPKT_EXPECT(config.pool_sessions >= 1,
                 "incident_feed: need at least one pool session");

  const auto healthy_pool =
      session_pool(svc, config.pool_sessions, 0.05, config.seed);
  const auto degraded_pool =
      session_pool(svc, config.pool_sessions, config.congestion,
                   config.seed ^ 0xdeadULL);

  IncidentGroundTruth gt;
  gt.incident_start_s = config.incident_start_s;
  const std::size_t first_degraded =
      config.num_locations - config.degraded_locations;
  std::vector<std::string> locations;
  for (std::size_t l = 0; l < config.num_locations; ++l) {
    const bool degraded = l >= first_degraded;
    // Healthy cells "cell-hN", degraded "cell-dN": self-describing output
    // in examples/benches, invisible to the pipeline (any names work).
    const std::string name =
        (degraded ? "cell-d" : "cell-h") +
        std::to_string(degraded ? l - first_degraded : l);
    locations.push_back(name);
    (degraded ? gt.degraded_locations : gt.healthy_locations).push_back(name);
  }

  util::Rng rng(config.seed ^ 0x5ca1edULL);
  Feed feed;
  std::size_t client_idx = 0;
  for (std::size_t l = 0; l < config.num_locations; ++l) {
    const bool loc_degraded = l >= first_degraded;
    for (std::size_t c = 0; c < config.clients_per_location; ++c) {
      const std::string client =
          locations[l] + "/sub-" + std::to_string(c);
      double t = config.client_stagger_s * static_cast<double>(client_idx++);
      for (std::size_t s = 0; s < config.sessions_per_client; ++s) {
        const bool degraded =
            loc_degraded && t >= config.incident_start_s;
        const auto& pool = degraded ? degraded_pool : healthy_pool;
        const auto& log = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
        ScheduledSession sched;
        sched.client = client;
        sched.location = locations[l];
        sched.start_s = t;
        sched.degraded = degraded;
        double last_end = t;
        for (const auto& txn : log) {
          FeedRecord r;
          r.client = client;
          r.txn = txn;
          r.txn.start_s += t;
          r.txn.end_s += t;
          last_end = std::max(last_end, r.txn.end_s);
          feed.push_back(std::move(r));
        }
        sched.end_s = last_end;
        gt.sessions.push_back(std::move(sched));
        t = last_end + config.session_gap_s + rng.uniform(0.0, 10.0);
      }
    }
  }
  sort_feed(feed);
  if (truth != nullptr) *truth = gt;
  return feed;
}

Feed synthetic_feed(const SynthFeedConfig& config) {
  util::Rng rng(config.seed);
  Feed feed;
  feed.reserve(config.num_clients * config.sessions_per_client *
               config.txns_per_session);
  // A shared CDN pool; each session draws a mostly-fresh subset, which is
  // what the burst+fresh-server delimiter keys on.
  constexpr int kPoolSize = 48;
  for (std::size_t c = 0; c < config.num_clients; ++c) {
    const std::string client = "sub-" + std::to_string(c);
    double t = rng.uniform(0.0, config.horizon_s);
    for (std::size_t s = 0; s < config.sessions_per_client; ++s) {
      const int pool_base = static_cast<int>(rng.uniform_int(0, kPoolSize - 1));
      for (std::size_t k = 0; k < config.txns_per_session; ++k) {
        FeedRecord r;
        r.client = client;
        // Session open: a burst of connections within ~1 s to fresh
        // servers; afterwards, chunk fetches every few seconds reusing a
        // small server set.
        if (k < 4) {
          r.txn.start_s = t + rng.uniform(0.0, 1.0);
          r.txn.sni = "cdn" + std::to_string((pool_base + static_cast<int>(k)) %
                                             kPoolSize) +
                      ".example";
        } else {
          r.txn.start_s = t + 1.0 + 2.5 * static_cast<double>(k - 4) +
                          rng.uniform(0.0, 1.5);
          r.txn.sni = "cdn" +
                      std::to_string((pool_base + static_cast<int>(k) % 3) %
                                     kPoolSize) +
                      ".example";
        }
        r.txn.end_s = r.txn.start_s + rng.uniform(2.0, 12.0);
        r.txn.ul_bytes = rng.lognormal(6.0, 0.8);
        r.txn.dl_bytes = rng.lognormal(13.5, 1.2);
        r.txn.http_count = static_cast<std::size_t>(rng.uniform_int(1, 9));
        feed.push_back(std::move(r));
      }
      t += 1.0 + 2.5 * static_cast<double>(config.txns_per_session) +
           config.session_gap_s;
    }
  }
  sort_feed(feed);
  return feed;
}

}  // namespace droppkt::engine
