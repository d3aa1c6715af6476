// The sharded ingest engine must be a pure parallelization: same sessions,
// same classes, any shard count.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <tuple>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_builder.hpp"
#include "engine/feed.hpp"
#include "util/expect.hpp"

namespace droppkt::engine {
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

const Feed& shared_feed() {
  static const Feed feed =
      simulated_feed(has::svc1_profile(), 10, 3, /*seed=*/5);
  return feed;
}

/// Order-independent canonical form: client -> multiset of
/// (transaction count, predicted class, start time in ms).
using Canonical =
    std::map<std::string, std::multiset<std::tuple<std::size_t, int, long>>>;

Canonical canonicalize(const std::vector<core::MonitoredSession>& sessions) {
  Canonical c;
  for (const auto& s : sessions) {
    c[s.client].insert({s.transactions.size(), s.predicted_class,
                        std::lround(s.start_s * 1000.0)});
  }
  return c;
}

std::vector<core::MonitoredSession> run_plain(const Feed& feed) {
  std::vector<core::MonitoredSession> out;
  core::StreamingMonitor mon(
      core::StreamingMonitor::ViewSinkTag{}, trained_estimator(),
      [&](const core::MonitoredSessionView& s) {
        out.push_back(s.to_owned());
      });
  for (const auto& r : feed) mon.observe(r.client, r.txn);
  mon.finish();
  return out;
}

std::vector<core::MonitoredSession> run_engine(const Feed& feed,
                                               EngineConfig cfg) {
  std::vector<core::MonitoredSession> out;
  std::mutex mu;
  IngestEngine eng(
      trained_estimator(),
      [&](const core::MonitoredSessionView& s) {
        const std::lock_guard<std::mutex> lock(mu);
        out.push_back(s.to_owned());
      },
      cfg);
  for (const auto& r : feed) eng.ingest(r.client, r.txn);
  eng.finish();
  return out;
}

std::vector<core::MonitoredSession> run_engine_batched(const Feed& feed,
                                                      EngineConfig cfg,
                                                      std::size_t batch) {
  std::vector<core::MonitoredSession> out;
  std::mutex mu;
  IngestEngine eng(
      trained_estimator(),
      [&](const core::MonitoredSessionView& s) {
        const std::lock_guard<std::mutex> lock(mu);
        out.push_back(s.to_owned());
      },
      cfg);
  for (std::size_t i = 0; i < feed.size(); i += batch) {
    const std::size_t n = std::min(batch, feed.size() - i);
    eng.ingest_batch({feed.data() + i, n});
  }
  eng.finish();
  return out;
}

TEST(IngestEngine, ValidatesConstruction) {
  core::QoeEstimator untrained;
  EXPECT_THROW(IngestEngine(untrained, [](const core::MonitoredSessionView&) {}),
               droppkt::ContractViolation);
  EXPECT_THROW(IngestEngine(trained_estimator(), nullptr),
               droppkt::ContractViolation);
  EngineConfig bad;
  bad.watermark_interval_s = 0.0;
  EXPECT_THROW(
      IngestEngine(trained_estimator(),
                   [](const core::MonitoredSessionView&) {}, bad),
      droppkt::ContractViolation);
}

TEST(IngestEngine, ClientsStickToOneShard) {
  EngineConfig cfg;
  cfg.num_shards = 4;
  IngestEngine eng(trained_estimator(),
                   [](const core::MonitoredSessionView&) {}, cfg);
  EXPECT_EQ(eng.num_shards(), 4u);
  for (int c = 0; c < 50; ++c) {
    const std::string client = "client-" + std::to_string(c);
    const std::size_t shard = eng.shard_of(client);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(eng.shard_of(client), shard);  // stable
  }
}

TEST(IngestEngine, OneShardMatchesPlainMonitor) {
  const auto plain = canonicalize(run_plain(shared_feed()));
  EngineConfig cfg;
  cfg.num_shards = 1;
  const auto sharded = canonicalize(run_engine(shared_feed(), cfg));
  EXPECT_EQ(plain, sharded);
}

TEST(IngestEngine, ShardCountDoesNotChangeSessions) {
  const auto baseline = canonicalize(run_plain(shared_feed()));
  for (const std::size_t n : {2u, 4u, 7u}) {
    EngineConfig cfg;
    cfg.num_shards = n;
    const auto sharded = canonicalize(run_engine(shared_feed(), cfg));
    EXPECT_EQ(baseline, sharded) << "diverged at " << n << " shards";
  }
}

// Batching is a mailbox transport detail: any ingest_batch() block size —
// including blocks far larger than the drain block and non-divisors of
// the feed length — must produce exactly the per-record-ingest sessions.
TEST(IngestEngine, BatchSizeDoesNotChangeSessions) {
  const auto baseline = canonicalize(run_plain(shared_feed()));
  for (const std::size_t shards : {1u, 3u}) {
    for (const std::size_t batch : {1u, 7u, 64u, 1024u}) {
      EngineConfig cfg;
      cfg.num_shards = shards;
      const auto batched =
          canonicalize(run_engine_batched(shared_feed(), cfg, batch));
      EXPECT_EQ(baseline, batched)
          << "diverged at " << shards << " shards, batch " << batch;
    }
  }
}

// Sinks that only need counts/bytes can turn off transaction
// materialization; the view then carries interned records (plus the pool
// to resolve SNIs), classification is unchanged, and to_owned() still
// copies complete sessions by rebuilding the transactions from the
// records.
TEST(IngestEngine, UnmaterializedViewCarriesRecords) {
  using Session = std::tuple<std::string, std::vector<std::string>, int>;
  const auto key = [](const core::MonitoredSession& s) {
    std::vector<std::string> snis;
    for (const auto& t : s.transactions) snis.push_back(t.sni);
    return Session{s.client, std::move(snis), s.predicted_class};
  };
  std::mutex mu;
  std::multiset<Session> lean;
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.monitor.materialize_transactions = false;
  {
    IngestEngine eng(
        trained_estimator(),
        [&](const core::MonitoredSessionView& s) {
          const std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(s.transactions.empty());
          EXPECT_NE(s.sni_pool, nullptr);
          const core::MonitoredSession owned = s.to_owned();
          EXPECT_EQ(owned.transactions.size(), s.records.size());
          lean.insert(key(owned));
        },
        cfg);
    for (const auto& r : shared_feed()) eng.ingest(r.client, r.txn);
    eng.finish();
  }
  // Same sessions (client, SNI sequence, class) as the materialized run.
  std::multiset<Session> full;
  for (const auto& s : run_plain(shared_feed())) full.insert(key(s));
  EXPECT_EQ(lean, full);
}

TEST(IngestEngine, StatsAccountForEveryRecord) {
  EngineConfig cfg;
  cfg.num_shards = 3;
  std::size_t sink_count = 0;
  std::mutex mu;
  IngestEngine eng(
      trained_estimator(),
      [&](const core::MonitoredSessionView&) {
        const std::lock_guard<std::mutex> lock(mu);
        ++sink_count;
      },
      cfg);
  for (const auto& r : shared_feed()) eng.ingest(r.client, r.txn);
  eng.finish();
  const auto snap = eng.stats();
  EXPECT_EQ(snap.records_ingested, shared_feed().size());
  EXPECT_EQ(snap.records_processed, shared_feed().size());
  EXPECT_EQ(snap.records_dropped, 0u);
  EXPECT_EQ(snap.sessions_reported, sink_count);
  EXPECT_EQ(snap.sessions_reported, eng.sessions_reported());
  EXPECT_EQ(snap.shards.size(), 3u);
  std::uint64_t per_shard_records = 0;
  for (const auto& s : snap.shards) {
    per_shard_records += s.records;
    EXPECT_LE(s.queue_high_water, 4096u);
    EXPECT_EQ(s.queue_depth, 0u);
  }
  EXPECT_EQ(per_shard_records, shared_feed().size());
  EXPECT_GT(snap.latency_p99_us, 0.0);
  EXPECT_GE(snap.latency_p99_us, snap.latency_p50_us);
}

TEST(IngestEngine, DropOldestShedsButConserves) {
  // A 2-slot mailbox under a large feed: the engine must neither block
  // forever nor lose track of a single record.
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 2;
  cfg.backpressure = util::BackpressurePolicy::kDropOldest;
  std::mutex mu;
  std::size_t sessions = 0;
  IngestEngine eng(
      trained_estimator(),
      [&](const core::MonitoredSessionView&) {
        const std::lock_guard<std::mutex> lock(mu);
        ++sessions;
      },
      cfg);
  for (const auto& r : shared_feed()) eng.ingest(r.client, r.txn);
  eng.finish();
  const auto snap = eng.stats();
  EXPECT_EQ(snap.records_ingested, shared_feed().size());
  EXPECT_LE(snap.records_processed, snap.records_ingested);
  // Dropped counts records and watermarks; together with processed work it
  // must cover everything that was enqueued.
  EXPECT_GE(snap.records_processed + snap.records_dropped,
            snap.records_ingested);
}

TEST(IngestEngine, WatermarkEvictsIdleClientOnQuietShard) {
  // One client goes silent early; other clients keep the feed moving. The
  // quiet client's session must be emitted by the watermark broadcast
  // *before* finish() — that is the whole point of the low watermark.
  EngineConfig cfg;
  cfg.num_shards = 4;
  cfg.monitor.client_idle_timeout_s = 60.0;
  cfg.monitor.min_transactions = 2;
  cfg.watermark_interval_s = 10.0;
  std::mutex mu;
  std::vector<std::string> emitted;
  IngestEngine eng(
      trained_estimator(),
      [&](const core::MonitoredSessionView& s) {
        const std::lock_guard<std::mutex> lock(mu);
        emitted.push_back(std::string(s.client));
      },
      cfg);

  const auto make_txn = [](double start, std::string sni) {
    trace::TlsTransaction t;
    t.start_s = start;
    t.end_s = start + 8.0;
    t.ul_bytes = 500.0;
    t.dl_bytes = 1e6;
    t.sni = std::move(sni);
    t.http_count = 3;
    return t;
  };
  // The quiet client: 4 transactions around t=0.
  for (int i = 0; i < 4; ++i) {
    eng.ingest("quiet", make_txn(i * 2.0, "a"));
  }
  // Background clients carry feed time far past the idle timeout.
  for (int i = 0; i < 200; ++i) {
    std::string client = "busy-";
    client += std::to_string(i % 5);
    std::string sni = "b";
    sni += std::to_string(i % 3);
    eng.ingest(client, make_txn(10.0 + i * 2.0, sni));
  }
  // The eviction is asynchronous; poll briefly rather than calling
  // finish(), which would flush everything anyway.
  bool quiet_emitted = false;
  for (int tries = 0; tries < 500 && !quiet_emitted; ++tries) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      for (const auto& c : emitted) quiet_emitted |= (c == "quiet");
    }
    if (!quiet_emitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(quiet_emitted)
      << "idle client not evicted by watermark before finish()";
  eng.finish();
  // Exactly one session for the quiet client overall (no double emission).
  std::size_t quiet_sessions = 0;
  for (const auto& c : emitted) quiet_sessions += (c == "quiet");
  EXPECT_EQ(quiet_sessions, 1u);
}

TEST(IngestEngine, SurfacesProvisionalEstimatesInFlight) {
  // With a provisional sink, each shard's monitor reports in-flight QoE on
  // the configured cadence: every client with >= min_transactions records
  // produces provisionals before its session completes, the counters
  // account for each one, and the estimates reference live clients.
  EngineConfig cfg;
  cfg.num_shards = 3;
  cfg.monitor.min_transactions = 3;
  cfg.monitor.provisional_every = 4;
  std::mutex mu;
  std::map<std::string, std::size_t> provisional_counts;
  std::size_t bad = 0;
  IngestEngine eng(
      trained_estimator(), [](const core::MonitoredSessionView&) {},
      [&](const core::ProvisionalEstimate& e) {
        const std::lock_guard<std::mutex> lock(mu);
        ++provisional_counts[std::string(e.client)];
        if (e.predicted_class < 0 || e.predicted_class > 2 ||
            e.transactions_observed == 0 ||
            e.last_activity_s < e.session_start_s) {
          ++bad;
        }
      },
      cfg);
  for (const auto& r : shared_feed()) eng.ingest(r.client, r.txn);
  eng.finish();

  EXPECT_EQ(bad, 0u);
  EXPECT_FALSE(provisional_counts.empty());
  std::size_t total = 0;
  for (const auto& [client, n] : provisional_counts) total += n;
  EXPECT_EQ(eng.provisionals_reported(), total);
  EXPECT_EQ(eng.stats().provisionals_reported, total);

  // Without a sink (the 3-arg constructor), nothing fires even with the
  // cadence configured.
  IngestEngine quiet_eng(trained_estimator(),
                         [](const core::MonitoredSessionView&) {}, cfg);
  for (const auto& r : shared_feed()) quiet_eng.ingest(r.client, r.txn);
  quiet_eng.finish();
  EXPECT_EQ(quiet_eng.provisionals_reported(), 0u);
}

}  // namespace
}  // namespace droppkt::engine
