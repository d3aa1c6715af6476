// Differential oracle: the streaming stack against the paper's batch
// reference pipeline.
//
// ReferenceMonitor below is built only from the batch functions that
// define the paper's pipeline — detect_session_starts (§4.2) re-run over a
// client's whole pending TlsLog on every arrival and cut at the first
// start, QoeEstimator::predict / predict_proba (extract_tls_features + the
// forest) over that log — plus the deployment rules the streaming layer
// adds: the client idle timeout, the engine's low-watermark cadence and a
// one-lane alert::AlertPipeline. It shares none of StreamingMonitor's
// incremental boundary scan, settled-prefix block folds or head re-folds
// (batch extraction feeds a whole log to a fresh accumulator and
// snapshots it once), and none of the engine's interning, sharding or
// batching.
//
// StreamingMonitor (string observe()) and IngestEngine at {1,2,4} shards x
// ingest_batch spans of {1, 32, 256} records, with provisional estimates
// off and every 4th record, materialization on and off, must reproduce
// three outputs byte for byte: the session lines (every float at %.17g),
// the provisional count and the alert event sequence. Each case also
// asserts which emission paths its feed exercised, so a path the oracle
// never reaches cannot pass unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "core/monitor.hpp"
#include "core/session_id.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "util/string_pool.hpp"

namespace droppkt {
namespace {

const core::QoeEstimator& trained_estimator() {
  static const core::QoeEstimator est = [] {
    core::DatasetConfig cfg;
    cfg.num_sessions = 200;
    cfg.seed = 17;
    cfg.trace_pool_size = 40;
    cfg.catalog_size = 20;
    core::QoeEstimator e;
    e.train(core::build_dataset(has::svc1_profile(), cfg));
    return e;
  }();
  return est;
}

std::string session_line(std::string_view client, std::size_t records,
                         int predicted, double confidence, double start_s,
                         double end_s, double detected_s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.*s|%zu|%d|%.17g|%.17g|%.17g|%.17g",
                static_cast<int>(client.size()), client.data(), records,
                predicted, confidence, start_s, end_s, detected_s);
  return buf;
}

/// What a run reports. Sessions are a sorted multiset — emission order
/// across clients is the one thing sharding may change — while the alert
/// pipeline guarantees the order of its events too.
struct Outputs {
  std::string sessions;
  std::uint64_t provisionals = 0;
  std::string alerts;
};

Outputs collect(std::vector<std::string> lines, std::uint64_t provisionals,
                const alert::AlertPipeline& pipeline) {
  Outputs out;
  std::sort(lines.begin(), lines.end());
  for (const auto& l : lines) {
    out.sessions += l;
    out.sessions += '\n';
  }
  out.provisionals = provisionals;
  char buf[256];
  for (const auto& e : pipeline.log_snapshot()) {
    std::snprintf(buf, sizeof(buf), "%s|%llu|%s|%.17g|%.17g|%.17g|%.17g\n",
                  e.kind == alert::AlertEvent::Kind::kRaised ? "R" : "C",
                  static_cast<unsigned long long>(e.id), e.location.c_str(),
                  e.time_s, e.rate_low, e.rate_high, e.effective_sessions);
    out.alerts += buf;
  }
  return out;
}

/// The engine's watermark rule: a broadcast at the first record, then at
/// every record starting at least `interval_s` after the last broadcast.
struct WatermarkCadence {
  double interval_s;
  double last_s = 0.0;
  bool started = false;

  bool due(double start_s) {
    if (started && start_s - last_s < interval_s) return false;
    started = true;
    last_s = start_s;
    return true;
  }
};

/// How the reference's sessions ended (each counts emitted sessions only).
struct PathCounts {
  std::size_t burst_cuts = 0;
  std::size_t idle_reopens = 0;
  std::size_t watermark_evictions = 0;
  std::size_t finish_flushes = 0;
};

class ReferenceMonitor {
 public:
  ReferenceMonitor(const core::QoeEstimator& estimator,
                   core::MonitorConfig config, double watermark_interval_s,
                   const alert::AlertPipelineConfig& alerts)
      : estimator_(estimator),
        config_(config),
        cadence_{watermark_interval_s},
        pipeline_(alerts) {
    pipeline_.bind(1);
  }

  void observe(const engine::FeedRecord& r) {
    const double now_s = r.txn.start_s;
    if (cadence_.due(now_s)) {
      for (auto it = clients_.begin(); it != clients_.end();) {
        if (now_s - it->second.last_start_s > config_.client_idle_timeout_s) {
          paths_.watermark_evictions +=
              emit(it->first, it->second.pending, now_s, false);
          it = clients_.erase(it);
        } else {
          ++it;
        }
      }
      pipeline_.on_watermark(0, now_s);
    }

    Client& c = clients_[r.client];
    if (!c.pending.empty() &&
        now_s - c.last_start_s > config_.client_idle_timeout_s) {
      paths_.idle_reopens += emit(r.client, c.pending, now_s, false);
      c.pending.clear();
    }
    c.pending.push_back(r.txn);
    c.last_start_s = now_s;

    if (config_.provisional_every > 0 &&
        c.pending.size() >= config_.min_transactions &&
        c.pending.size() % config_.provisional_every == 0) {
      core::ProvisionalEstimate est;
      est.client = r.client;
      est.transactions_observed = c.pending.size();
      est.predicted_class = estimator_.predict(c.pending);
      est.confidence = estimator_.predict_proba(
          c.pending)[static_cast<std::size_t>(est.predicted_class)];
      est.session_start_s = c.pending.front().start_s;
      est.last_activity_s = now_s;
      ++provisionals_;
      pipeline_.on_provisional(0, est);
    }

    const std::vector<bool> starts =
        core::detect_session_starts(c.pending, config_.session_id);
    const auto first = std::find(starts.begin() + 1, starts.end(), true);
    if (first == starts.end()) return;
    const auto k = first - starts.begin();
    const trace::TlsLog head(c.pending.begin(), c.pending.begin() + k);
    paths_.burst_cuts += emit(r.client, head, now_s, false);
    c.pending.erase(c.pending.begin(), c.pending.begin() + k);
  }

  /// Flush every open session, as the engine's shutdown does; the
  /// sessions carry no feed clock, so detected_s is the last record start.
  Outputs finish() {
    for (const auto& [client, c] : clients_) {
      paths_.finish_flushes += emit(client, c.pending, c.last_start_s, true);
    }
    clients_.clear();
    pipeline_.on_finish();
    return collect(lines_, provisionals_, pipeline_);
  }

  const PathCounts& paths() const { return paths_; }

 private:
  struct Client {
    trace::TlsLog pending;
    double last_start_s = 0.0;
  };

  /// Classify and report one session; false when it is dropped as noise.
  bool emit(const std::string& client, const trace::TlsLog& log,
            double detected_s, bool at_close) {
    if (log.size() < config_.min_transactions) return false;
    core::MonitoredSessionView view;
    view.client = client;
    view.transactions = log;
    view.predicted_class = estimator_.predict(log);
    view.confidence = estimator_.predict_proba(
        log)[static_cast<std::size_t>(view.predicted_class)];
    view.start_s = log.front().start_s;
    view.end_s = log.front().end_s;
    for (const auto& t : log) view.end_s = std::max(view.end_s, t.end_s);
    view.detected_s = detected_s;
    lines_.push_back(session_line(client, log.size(), view.predicted_class,
                                  view.confidence, view.start_s, view.end_s,
                                  view.detected_s));
    pipeline_.on_session(0, view, at_close);
    return true;
  }

  const core::QoeEstimator& estimator_;
  core::MonitorConfig config_;
  WatermarkCadence cadence_;
  alert::AlertPipeline pipeline_;
  std::map<std::string, Client> clients_;
  std::vector<std::string> lines_;
  std::uint64_t provisionals_ = 0;
  PathCounts paths_;
};

std::string view_line(const core::MonitoredSessionView& s) {
  return session_line(s.client, s.records.size(), s.predicted_class,
                      s.confidence, s.start_s, s.end_s, s.detected_s);
}

/// One feed under one deployment configuration (default monitor config).
struct OracleCase {
  const engine::Feed& feed;
  double watermark_interval_s = 15.0;
  alert::AlertPipelineConfig alerts;
};

/// A plain StreamingMonitor (owned pools, string observe()) driven at the
/// engine's watermark cadence into a one-lane pipeline.
Outputs run_monitor(const OracleCase& c, const core::MonitorConfig& mcfg) {
  alert::AlertPipeline pipeline(c.alerts);
  pipeline.bind(1);
  std::vector<std::string> lines;
  bool draining = false;
  core::StreamingMonitor mon(
      core::StreamingMonitor::ViewSinkTag{}, trained_estimator(),
      [&](const core::MonitoredSessionView& s) {
        lines.push_back(view_line(s));
        pipeline.on_session(0, s, draining);
      },
      mcfg);
  mon.set_provisional_callback([&](const core::ProvisionalEstimate& e) {
    pipeline.on_provisional(0, e);
  });
  WatermarkCadence cadence{c.watermark_interval_s};
  for (const auto& r : c.feed) {
    if (cadence.due(r.txn.start_s)) {
      mon.advance_time(r.txn.start_s);
      pipeline.on_watermark(0, r.txn.start_s);
    }
    mon.observe(r.client, r.txn);
  }
  draining = true;
  mon.finish();
  pipeline.on_finish();
  return collect(std::move(lines), mon.provisionals_reported(), pipeline);
}

/// The sharded engine, fed ingest_batch() spans of `batch` records.
Outputs run_engine(const OracleCase& c, const core::MonitorConfig& mcfg,
                   std::size_t shards, std::size_t batch) {
  alert::AlertPipeline pipeline(c.alerts);
  std::vector<std::string> lines;
  engine::EngineConfig ecfg;
  ecfg.num_shards = shards;
  ecfg.monitor = mcfg;
  ecfg.watermark_interval_s = c.watermark_interval_s;
  ecfg.alert_sink = &pipeline;
  // The engine serializes sink calls under its own mutex.
  engine::IngestEngine eng(
      trained_estimator(),
      [&](const core::MonitoredSessionView& s) {
        lines.push_back(view_line(s));
      },
      ecfg);
  for (std::size_t i = 0; i < c.feed.size(); i += batch) {
    const std::size_t n = std::min(batch, c.feed.size() - i);
    eng.ingest_batch(
        std::span<const engine::FeedRecord>(c.feed.data() + i, n));
  }
  eng.finish();  // joins the workers: `lines` and the pipeline are final
  return collect(std::move(lines), eng.provisionals_reported(), pipeline);
}

void expect_same(const Outputs& want, const Outputs& got,
                 const std::string& what) {
  EXPECT_EQ(got.sessions, want.sessions) << what << ": session lines";
  EXPECT_EQ(got.provisionals, want.provisionals) << what << ": provisionals";
  EXPECT_EQ(got.alerts, want.alerts) << what << ": alert sequence";
}

/// Run the reference and every streaming configuration over the case;
/// returns the paths the reference exercised.
PathCounts check_against_reference(const OracleCase& c) {
  PathCounts paths;
  for (const std::size_t provisional_every : {0u, 4u}) {
    core::MonitorConfig mcfg;
    mcfg.provisional_every = provisional_every;
    ReferenceMonitor ref(trained_estimator(), mcfg, c.watermark_interval_s,
                         c.alerts);
    for (const auto& r : c.feed) ref.observe(r);
    const Outputs want = ref.finish();
    paths = ref.paths();

    EXPECT_FALSE(want.sessions.empty());
    EXPECT_FALSE(want.alerts.empty())
        << "the case must raise alerts, or the alert comparison is vacuous";
    if (provisional_every > 0) {
      EXPECT_GT(want.provisionals, 0u);
    }

    const std::string tag =
        "provisional_every " + std::to_string(provisional_every);
    for (const bool materialize : {true, false}) {
      mcfg.materialize_transactions = materialize;
      expect_same(want, run_monitor(c, mcfg),
                  tag + ", StreamingMonitor, materialize " +
                      std::to_string(materialize));
    }
    // Materialization alternates over the nine engine combinations, so
    // every shard count and every ingest mode runs with it on and off.
    std::size_t combo = 0;
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t batch : {1u, 32u, 256u}) {
        mcfg.materialize_transactions = combo++ % 2 == 0;
        expect_same(want, run_engine(c, mcfg, shards, batch),
                    tag + ", " + std::to_string(shards) + " shards, batch " +
                        std::to_string(batch) + ", materialize " +
                        std::to_string(mcfg.materialize_transactions));
      }
    }
  }
  return paths;
}

/// Subscribers hashed into `locations` cells, with detection lowered far
/// enough that mostly healthy synthetic feeds still raise alerts.
alert::AlertPipelineConfig hashed_alerts(std::uint64_t locations) {
  alert::AlertPipelineConfig cfg;
  cfg.location_of = [locations](std::string_view client) {
    return "loc-" + std::to_string(util::well_mixed_hash(client) % locations);
  };
  cfg.detector.alert_rate = 0.05;
  cfg.detector.min_effective_sessions = 2.0;
  cfg.manager.defaults.raise_rate = 0.05;
  cfg.manager.defaults.clear_rate = 0.02;
  return cfg;
}

// The throughput bench's smoke feed: 100 subscribers x 2 ten-minute
// sessions of 240 connections, every 8th subscriber starved. Its 240 s
// session gap exceeds the idle timeout, so watermarks end the first
// sessions and finish() the second ones; nothing here cuts on a burst.
TEST(ReferenceOracle, LongSessionSyntheticFeed) {
  static const engine::Feed feed = [] {
    engine::SynthFeedConfig cfg;
    cfg.num_clients = 100;
    cfg.txns_per_session = 240;
    cfg.seed = 20201204;
    engine::Feed f = engine::synthetic_feed(cfg);
    for (auto& r : f) {
      if (util::well_mixed_hash(r.client) % 8 == 0) r.txn.dl_bytes *= 0.02;
    }
    return f;
  }();
  const PathCounts paths = check_against_reference(
      {.feed = feed, .alerts = hashed_alerts(64)});
  EXPECT_GT(paths.watermark_evictions, 0u);
  EXPECT_GT(paths.finish_flushes, 0u);
}

// Back-to-back simulated sessions: the burst + fresh-server heuristic is
// the only thing that can separate them.
TEST(ReferenceOracle, BackToBackSimulatedFeed) {
  static const engine::Feed feed =
      engine::simulated_feed(has::svc1_profile(), 10, 3, /*seed=*/5);
  const PathCounts paths = check_against_reference(
      {.feed = feed, .alerts = hashed_alerts(4)});
  EXPECT_GT(paths.burst_cuts, 0u);
}

const engine::Feed& default_incident_feed() {
  static const engine::Feed feed =
      engine::incident_feed(has::svc1_profile(), engine::IncidentFeedConfig{});
  return feed;
}

alert::AlertPipelineConfig incident_alerts() {
  alert::AlertPipelineConfig cfg;
  cfg.filter.hysteresis_k = 2;
  cfg.filter.min_confidence = 0.4;
  cfg.detector.half_life_s = 300.0;
  cfg.detector.min_effective_sessions = 3.0;
  cfg.detector.alert_rate = 0.35;
  cfg.manager.defaults.raise_rate = 0.35;
  cfg.manager.defaults.clear_rate = 0.2;
  cfg.manager.defaults.clear_cooldown_s = 120.0;
  return cfg;
}

// A location incident under the default "location/subscriber" mapping.
TEST(ReferenceOracle, DefaultIncidentFeed) {
  const PathCounts paths = check_against_reference(
      {.feed = default_incident_feed(), .alerts = incident_alerts()});
  EXPECT_GT(paths.watermark_evictions, 0u);
}

// Watermarks sparser than the idle timeout: a client whose gap no
// watermark falls into returns to an idle window, and its next record
// closes the old session (the idle-gap path) instead of an eviction.
TEST(ReferenceOracle, SparseWatermarksReopenIdleClients) {
  const PathCounts paths =
      check_against_reference({.feed = default_incident_feed(),
                               .watermark_interval_s = 300.0,
                               .alerts = incident_alerts()});
  EXPECT_GT(paths.idle_reopens, 0u);
}

}  // namespace
}  // namespace droppkt
