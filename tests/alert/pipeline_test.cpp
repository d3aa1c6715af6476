#include "alert/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "util/expect.hpp"

namespace droppkt::alert {
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

const engine::Feed& incident_feed() {
  static const engine::Feed feed = [] {
    engine::IncidentFeedConfig cfg;
    cfg.num_locations = 4;
    cfg.degraded_locations = 1;
    cfg.clients_per_location = 4;
    cfg.sessions_per_client = 2;
    cfg.pool_sessions = 8;
    cfg.incident_start_s = 400.0;
    cfg.seed = 99;
    return engine::incident_feed(has::svc1_profile(), cfg);
  }();
  return feed;
}

/// Canonical serialization of the pipeline's observable output: the merged
/// transition stream plus the final alert log, every float at full
/// precision. Bit-identity across shard counts compares these strings.
struct CanonicalRun {
  std::string transitions;
  std::string alerts;
  engine::AlertCounts counts;
  std::uint64_t stats_transitions = 0;
  bool stats_alerting = false;
};

CanonicalRun run_engine(std::size_t shards) {
  CanonicalRun out;
  AlertPipelineConfig cfg;
  cfg.filter.hysteresis_k = 2;
  cfg.filter.min_confidence = 0.4;
  cfg.detector.half_life_s = 300.0;
  cfg.detector.min_effective_sessions = 3.0;
  cfg.detector.alert_rate = 0.35;
  cfg.manager.defaults.raise_rate = 0.35;
  cfg.manager.defaults.clear_rate = 0.2;
  cfg.manager.defaults.clear_cooldown_s = 120.0;
  cfg.on_transition = [&](const VerdictTransition& t,
                          const std::string& location) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s|%s|%d|%d|%.17g|%.17g|%d\n",
                  t.client.c_str(), location.c_str(), t.from_class,
                  t.to_class, t.time_s, t.prev_time_s, t.final_verdict);
    out.transitions += buf;
  };
  AlertPipeline pipeline(cfg);

  engine::EngineConfig ecfg;
  ecfg.num_shards = shards;
  ecfg.monitor.client_idle_timeout_s = 120.0;
  ecfg.monitor.provisional_every = 4;
  ecfg.watermark_interval_s = 15.0;
  ecfg.alert_sink = &pipeline;
  engine::IngestEngine eng(trained_estimator(),
                           [](const core::MonitoredSessionView&) {}, ecfg);
  for (const auto& r : incident_feed()) eng.ingest_batch({&r, 1});
  eng.finish();

  for (const auto& ev : pipeline.log_snapshot()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu|%d|%s|%.17g|%.17g|%.17g|%.17g\n",
                  static_cast<unsigned long long>(ev.id),
                  static_cast<int>(ev.kind), ev.location.c_str(), ev.time_s,
                  ev.rate_low, ev.rate_high, ev.effective_sessions);
    out.alerts += buf;
  }
  out.counts = pipeline.counts();
  const auto snap = eng.stats();
  out.stats_alerting = snap.alerting;
  out.stats_transitions = snap.verdict_transitions;
  return out;
}

TEST(DefaultLocationOf, SplitsOnFirstSlash) {
  EXPECT_EQ(default_location_of("cell-3/sub-17"), "cell-3");
  EXPECT_EQ(default_location_of("cell-3/a/b"), "cell-3");
  EXPECT_EQ(default_location_of("solo"), "solo");
  EXPECT_EQ(default_location_of(""), "");
}

TEST(AlertPipeline, BindExactlyOnce) {
  AlertPipeline pipeline;
  pipeline.bind(2);
  EXPECT_THROW(pipeline.bind(2), droppkt::ContractViolation);
  AlertPipeline unbound;
  EXPECT_THROW(unbound.bind(0), droppkt::ContractViolation);
}

TEST(AlertPipeline, SingleShardEndToEnd) {
  const CanonicalRun run = run_engine(1);
  // The feed produces sessions, so verdicts must have flowed through.
  EXPECT_GT(run.counts.transitions, 0u);
  EXPECT_FALSE(run.transitions.empty());
  EXPECT_TRUE(run.stats_alerting);
  EXPECT_EQ(run.stats_transitions, run.counts.transitions);
  // Every on_transition line corresponds to one counted transition.
  const auto lines = static_cast<std::uint64_t>(
      std::count(run.transitions.begin(), run.transitions.end(), '\n'));
  EXPECT_EQ(lines, run.counts.transitions);
  EXPECT_GE(run.counts.alerts_raised, run.counts.alerts_cleared);
}

TEST(AlertPipeline, AlertSequenceBitIdenticalAcrossShardCounts) {
  const CanonicalRun one = run_engine(1);
  for (const std::size_t shards : {2, 4}) {
    const CanonicalRun n = run_engine(shards);
    EXPECT_EQ(n.transitions, one.transitions) << shards << " shards";
    EXPECT_EQ(n.alerts, one.alerts) << shards << " shards";
    EXPECT_EQ(n.counts.transitions, one.counts.transitions);
    EXPECT_EQ(n.counts.alerts_raised, one.counts.alerts_raised);
    EXPECT_EQ(n.counts.alerts_cleared, one.counts.alerts_cleared);
  }
}


// ---------------------------------------------------------------------------
// Long-feed soak: stale-location eviction must bound detector state
// without perturbing determinism.
// ---------------------------------------------------------------------------

struct SoakResult {
  std::string transitions;
  std::string alerts;
  std::size_t tracked = 0;
  std::size_t evicted = 0;
};

SoakResult run_soak(std::size_t shards, double evict_below_weight) {
  SoakResult out;
  AlertPipelineConfig cfg;
  cfg.filter.hysteresis_k = 1;
  cfg.filter.min_confidence = 0.0;
  cfg.detector.half_life_s = 60.0;
  cfg.detector.min_effective_sessions = 2.0;
  cfg.evict_below_weight = evict_below_weight;
  cfg.on_transition = [&](const VerdictTransition& t,
                          const std::string& location) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s|%s|%d|%d|%.17g\n", t.client.c_str(),
                  location.c_str(), t.from_class, t.to_class, t.time_s);
    out.transitions += buf;
  };
  AlertPipeline pipeline(cfg);

  // An hour-long feed of one-client locations ("sub-N" has no slash, so
  // each client is its own location): clients start uniformly across the
  // horizon and go quiet after two sessions, so most locations' evidence
  // has fully decayed long before the feed ends.
  engine::SynthFeedConfig fcfg;
  fcfg.num_clients = 150;
  fcfg.sessions_per_client = 2;
  fcfg.txns_per_session = 12;
  fcfg.seed = 31;
  const engine::Feed feed = engine::synthetic_feed(fcfg);

  engine::EngineConfig ecfg;
  ecfg.num_shards = shards;
  ecfg.watermark_interval_s = 15.0;
  ecfg.monitor.materialize_transactions = false;
  ecfg.alert_sink = &pipeline;
  engine::IngestEngine eng(trained_estimator(),
                           [](const core::MonitoredSessionView&) {}, ecfg);
  for (const auto& r : feed) eng.ingest_batch({&r, 1});
  eng.finish();

  for (const auto& ev : pipeline.log_snapshot()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu|%d|%s|%.17g\n",
                  static_cast<unsigned long long>(ev.id),
                  static_cast<int>(ev.kind), ev.location.c_str(), ev.time_s);
    out.alerts += buf;
  }
  out.tracked = pipeline.tracked_locations();
  out.evicted = pipeline.locations_evicted();
  return out;
}

TEST(AlertPipeline, StaleEvictionBoundsDetectorStateOnLongFeeds) {
  const SoakResult off = run_soak(2, 0.0);
  EXPECT_EQ(off.evicted, 0u);
  // Without eviction every location that ever produced a verdict is
  // tracked forever.
  EXPECT_GT(off.tracked, 100u);

  const SoakResult on = run_soak(2, 1e-4);
  EXPECT_GT(on.evicted, 0u);
  EXPECT_LT(on.tracked, off.tracked / 2)
      << "eviction failed to bound tracked locations ("
      << on.tracked << " of " << off.tracked << ")";
  // Eviction changes bookkeeping, not the verdict stream.
  EXPECT_EQ(on.transitions, off.transitions);
}

TEST(AlertPipeline, StaleEvictionPreservesShardCountDeterminism) {
  const SoakResult one = run_soak(1, 1e-4);
  const SoakResult four = run_soak(4, 1e-4);
  EXPECT_EQ(one.transitions, four.transitions);
  EXPECT_EQ(one.alerts, four.alerts);
  EXPECT_EQ(one.tracked, four.tracked);
  EXPECT_EQ(one.evicted, four.evicted);
}

}  // namespace
}  // namespace droppkt::alert
