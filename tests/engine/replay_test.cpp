// Record/replay determinism: a feed written as feed lines, read back and
// replayed through a fresh engine must reproduce the live run's alert
// sequence byte-for-byte and its final stats counters exactly — for any
// shard count, batch size and time scale. Pacing
// (ReplayConfig::time_scale) may only change *when* batches are offered
// to ingest, never which records or their order, so the replay output is
// clock-independent; a ManualClock behind the now_ns/sleep_ns seams
// keeps these tests instant and deterministic.
#include "engine/replay.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "has/service_profile.hpp"
#include "telemetry/clock.hpp"
#include "util/expect.hpp"

namespace droppkt::engine {
namespace {

const core::QoeEstimator& shared_estimator() {
  static const core::QoeEstimator* est = [] {
    core::DatasetConfig dcfg;
    dcfg.num_sessions = 600;
    dcfg.seed = 41;
    auto* e = new core::QoeEstimator();
    e->train(core::build_dataset(has::svc1_profile(), dcfg));
    return e;
  }();
  return *est;
}

const Feed& shared_feed() {
  static const Feed* feed = [] {
    IncidentFeedConfig fcfg;
    fcfg.num_locations = 6;
    fcfg.degraded_locations = 2;
    fcfg.clients_per_location = 6;
    fcfg.sessions_per_client = 3;
    fcfg.incident_start_s = 600.0;
    fcfg.seed = 1000;
    return new Feed(incident_feed(has::svc1_profile(), fcfg));
  }();
  return *feed;
}

alert::AlertPipelineConfig alert_config() {
  alert::AlertPipelineConfig acfg;
  acfg.filter.hysteresis_k = 3;
  acfg.filter.min_confidence = 0.5;
  acfg.detector.half_life_s = 600.0;
  acfg.detector.min_effective_sessions = 4.0;
  acfg.detector.alert_rate = 0.35;
  acfg.manager.defaults.raise_rate = 0.35;
  acfg.manager.defaults.clear_rate = 0.2;
  return acfg;
}

EngineConfig engine_config(std::size_t shards, alert::AlertPipeline* sink) {
  EngineConfig ecfg;
  ecfg.num_shards = shards;
  ecfg.monitor.client_idle_timeout_s = 120.0;
  ecfg.monitor.provisional_every = 4;
  ecfg.watermark_interval_s = 15.0;
  ecfg.alert_sink = sink;
  return ecfg;
}

struct RunResult {
  std::string alert_canon;
  EngineStatsSnapshot stats;
};

std::string canon_of(const alert::AlertPipeline& alerts) {
  std::string canon;
  char line[256];
  for (const auto& ev : alerts.log_snapshot()) {
    std::snprintf(
        line, sizeof(line), "%" PRIu64 " %s %s %.17g %.17g %.17g %.17g\n",
        ev.id,
        ev.kind == alert::AlertEvent::Kind::kRaised ? "RAISED" : "CLEARED",
        ev.location.c_str(), ev.time_s, ev.rate_low, ev.rate_high,
        ev.effective_sessions);
    canon += line;
  }
  return canon;
}

RunResult run_live() {
  alert::AlertPipeline alerts(alert_config());
  IngestEngine eng(shared_estimator(),
                   [](const core::MonitoredSessionView&) {},
                   engine_config(2, &alerts));
  for (const auto& r : shared_feed()) eng.ingest_batch({&r, 1});
  eng.finish();
  return {canon_of(alerts), eng.stats()};
}

/// The feed as droppkt_replay records and reads it: write_feed, then
/// read_feed.
Feed round_trip(const Feed& feed) {
  std::stringstream ss;
  write_feed(feed, ss);
  return read_feed(ss);
}

RunResult run_replay(const Feed& feed, std::size_t shards, double time_scale,
                     std::size_t batch = 256) {
  alert::AlertPipeline alerts(alert_config());
  IngestEngine eng(shared_estimator(),
                   [](const core::MonitoredSessionView&) {},
                   engine_config(shards, &alerts));
  telemetry::ManualClock clock;
  ReplayConfig rcfg;
  rcfg.time_scale = time_scale;
  rcfg.batch = batch;
  rcfg.now_ns = clock.fn();
  rcfg.sleep_ns = [&clock](std::uint64_t ns) { clock.advance(ns); };
  replay_feed(feed, eng, rcfg);
  eng.finish();
  return {canon_of(alerts), eng.stats()};
}

void expect_same_outcome(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.alert_canon, b.alert_canon);
  EXPECT_EQ(a.stats.records_ingested, b.stats.records_ingested);
  EXPECT_EQ(a.stats.records_processed, b.stats.records_processed);
  EXPECT_EQ(a.stats.sessions_reported, b.stats.sessions_reported);
  EXPECT_EQ(a.stats.provisionals_reported, b.stats.provisionals_reported);
  EXPECT_EQ(a.stats.verdict_transitions, b.stats.verdict_transitions);
  EXPECT_EQ(a.stats.alerts_raised, b.stats.alerts_raised);
  EXPECT_EQ(a.stats.alerts_cleared, b.stats.alerts_cleared);
}

TEST(Replay, TicksAtWatermarkCadence) {
  // A tick comes before the first record, tick times never decrease, and
  // there is one tick per watermark the engine broadcast to each shard.
  IngestEngine eng(shared_estimator(),
                   [](const core::MonitoredSessionView&) {},
                   engine_config(3, nullptr));
  std::vector<double> ticks;
  std::vector<std::uint64_t> ingested_at_tick;
  ReplayConfig rcfg;
  rcfg.batch = 64;
  rcfg.on_tick = [&](double tick_s) {
    ticks.push_back(tick_s);
    ingested_at_tick.push_back(eng.stats().records_ingested);
  };
  const ReplayStats rs = replay_feed(shared_feed(), eng, rcfg);
  eng.finish();
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_EQ(rs.ticks, ticks.size());
  EXPECT_EQ(rs.records, shared_feed().size());
  EXPECT_EQ(ingested_at_tick.front(), 0u);
  EXPECT_EQ(ticks.front(), shared_feed().front().txn.start_s);
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_GE(ticks[i] - ticks[i - 1], eng.watermark_interval_s());
  }
  for (const auto& shard : eng.stats().shards) {
    EXPECT_EQ(shard.watermarks, ticks.size());
  }
}

TEST(Replay, ReproducesLiveAlertSequenceByteForByte) {
  const RunResult live = run_live();
  // A gate that passes vacuously on an alert-free run proves nothing.
  ASSERT_NE(live.alert_canon.find("RAISED"), std::string::npos);

  const Feed recorded = round_trip(shared_feed());
  expect_same_outcome(live, run_replay(recorded, 2, /*time_scale=*/1.0));
  expect_same_outcome(live, run_replay(recorded, 2, /*time_scale=*/8.0));
}

TEST(Replay, OutcomeIndependentOfShardsBatchAndPacing) {
  const RunResult base = run_replay(shared_feed(), 1, /*time_scale=*/0.0);
  expect_same_outcome(base, run_replay(shared_feed(), 4, 0.0, /*batch=*/1));
  expect_same_outcome(base, run_replay(shared_feed(), 3, 64.0, /*batch=*/7));
}

TEST(Replay, PacingFollowsTheManualClock) {
  telemetry::ManualClock clock;
  alert::AlertPipeline alerts(alert_config());
  IngestEngine eng(shared_estimator(),
                   [](const core::MonitoredSessionView&) {},
                   engine_config(1, &alerts));
  ReplayConfig rcfg;
  rcfg.time_scale = 8.0;
  rcfg.now_ns = clock.fn();
  rcfg.sleep_ns = [&clock](std::uint64_t ns) { clock.advance(ns); };
  std::size_t ticks_seen = 0;
  rcfg.on_tick = [&](double) { ++ticks_seen; };
  const ReplayStats rs = replay_feed(shared_feed(), eng, rcfg);
  eng.finish();
  EXPECT_EQ(rs.records, shared_feed().size());
  EXPECT_EQ(rs.ticks, ticks_seen);
  // Processing is instant under the manual clock, so the wall time is
  // exactly the pacing sleeps: the span up to the LAST TICK compressed
  // by the time scale (records after it, at most one watermark interval's
  // worth, are not paced).
  EXPECT_NEAR(rs.wall_seconds, (rs.last_s - rs.first_s) / 8.0,
              /*abs_error=*/15.0 / 8.0);
}

TEST(Replay, LateRecordIsCountedNotFatal) {
  // One client, starts 0, 2, 1, 3 s: the reader accepts the feed, and
  // the record at 1 s is late. It must be dropped and counted on the
  // shard, not escape a worker thread as an exception.
  Feed feed;
  for (const double start : {0.0, 2.0, 1.0, 3.0}) {
    FeedRecord r;
    r.client = "late-client";
    r.txn = {.start_s = start, .end_s = start + 1.0, .ul_bytes = 500.0,
             .dl_bytes = 1e6, .sni = "video.example", .http_count = 1};
    feed.push_back(r);
  }
  const Feed decoded = round_trip(feed);
  ASSERT_EQ(decoded.size(), 4u);

  std::vector<std::size_t> session_records;
  IngestEngine eng(shared_estimator(),
                   [&](const core::MonitoredSessionView& s) {
                     session_records.push_back(s.records.size());
                   },
                   engine_config(2, nullptr));
  replay_feed(decoded, eng);
  eng.finish();
  EXPECT_EQ(eng.stats().records_late, 1u);
  ASSERT_EQ(session_records.size(), 1u);
  EXPECT_EQ(session_records[0], 3u);
}

TEST(Replay, ValidatesConfig) {
  alert::AlertPipeline alerts(alert_config());
  IngestEngine eng(shared_estimator(),
                   [](const core::MonitoredSessionView&) {},
                   engine_config(1, &alerts));
  ReplayConfig bad_batch;
  bad_batch.batch = 0;
  EXPECT_THROW(replay_feed(shared_feed(), eng, bad_batch), ContractViolation);
  ReplayConfig bad_scale;
  bad_scale.time_scale = -1.0;
  EXPECT_THROW(replay_feed(shared_feed(), eng, bad_scale), ContractViolation);
  eng.finish();
}

}  // namespace
}  // namespace droppkt::engine
