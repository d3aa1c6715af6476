#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/dataset_builder.hpp"
#include "util/expect.hpp"

namespace droppkt::core {
namespace {

const QoeEstimator& trained_estimator() {
  static const QoeEstimator est = [] {
    DatasetConfig cfg;
    cfg.num_sessions = 200;
    cfg.seed = 17;
    cfg.trace_pool_size = 40;
    cfg.catalog_size = 20;
    QoeEstimator e;
    e.train(build_dataset(has::svc1_profile(), cfg));
    return e;
  }();
  return est;
}

trace::TlsTransaction txn(double start, const std::string& sni,
                          double dl = 1e6) {
  return {.start_s = start, .end_s = start + 8.0, .ul_bytes = 500.0,
          .dl_bytes = dl, .sni = sni, .http_count = 3};
}

constexpr StreamingMonitor::ViewSinkTag kView{};

/// Session sink that keeps an owned copy of every reported session.
StreamingMonitor::ViewCallback keep_into(std::vector<MonitoredSession>& out) {
  return [&out](const MonitoredSessionView& v) { out.push_back(v.to_owned()); };
}

void ignore(const MonitoredSessionView&) {}

TEST(StreamingMonitor, ValidatesConstruction) {
  QoeEstimator untrained;
  EXPECT_THROW(StreamingMonitor(kView, untrained, ignore),
               droppkt::ContractViolation);
  EXPECT_THROW(StreamingMonitor(kView, trained_estimator(), nullptr),
               droppkt::ContractViolation);
}

TEST(StreamingMonitor, IdleTimeoutDelimitsSessions) {
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.client_idle_timeout_s = 60.0;
  cfg.min_transactions = 2;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  for (int i = 0; i < 4; ++i) mon.observe("c1", txn(i * 10.0, "a"));
  // Long idle, then more traffic.
  for (int i = 0; i < 4; ++i) mon.observe("c1", txn(300.0 + i * 10.0, "a"));
  EXPECT_EQ(out.size(), 1u);  // first session flushed by the gap
  mon.finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].transactions.size(), 4u);
  EXPECT_EQ(out[1].transactions.size(), 4u);
  EXPECT_EQ(out[0].client, "c1");
  EXPECT_LT(out[0].end_s, out[1].start_s);
}

TEST(StreamingMonitor, BurstBoundaryDetectedOnline) {
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.min_transactions = 2;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  // Session 1: servers a/b, overlapping with session 2's start.
  mon.observe("c1", txn(0.0, "a"));
  mon.observe("c1", txn(5.0, "b"));
  mon.observe("c1", txn(20.0, "a"));
  // Session 2 starts at t=40 with a burst to fresh servers.
  mon.observe("c1", txn(40.0, "c"));
  mon.observe("c1", txn(40.5, "d"));
  mon.observe("c1", txn(41.0, "e"));
  mon.observe("c1", txn(41.5, "f"));
  EXPECT_EQ(out.size(), 1u);  // boundary found without any idle gap
  EXPECT_EQ(out[0].transactions.size(), 3u);
  mon.finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].transactions.size(), 4u);
}

TEST(StreamingMonitor, ClientsAreIndependent) {
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.min_transactions = 2;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  // Interleaved clients; each has one session.
  for (int i = 0; i < 5; ++i) {
    mon.observe("alice", txn(i * 7.0, "a"));
    mon.observe("bob", txn(i * 7.0 + 1.0, "b"));
  }
  EXPECT_EQ(mon.open_clients(), 2u);
  mon.finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].client, out[1].client);
  EXPECT_EQ(mon.open_clients(), 0u);
}

TEST(StreamingMonitor, AdvanceTimeEvictsIdleClients) {
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.client_idle_timeout_s = 60.0;
  cfg.min_transactions = 2;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  for (int i = 0; i < 4; ++i) mon.observe("idle", txn(i * 10.0, "a"));
  mon.observe("fresh", txn(80.0, "b"));
  EXPECT_TRUE(out.empty());

  mon.advance_time(85.0);  // idle's last start is 30 -> not yet timed out
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(mon.open_clients(), 2u);

  mon.advance_time(95.0);  // 95 - 30 > 60: idle is evicted, fresh is not
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].client, "idle");
  EXPECT_EQ(out[0].transactions.size(), 4u);
  EXPECT_EQ(mon.open_clients(), 1u);

  // A record arriving after eviction opens a brand-new session.
  mon.observe("idle", txn(100.0, "a"));
  mon.observe("idle", txn(101.0, "a"));
  mon.finish();
  // idle's new 2-txn session is reported; fresh's single txn is noise.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].client, "idle");
  EXPECT_EQ(out[1].transactions.size(), 2u);
}

TEST(StreamingMonitor, TinySessionsDropped) {
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.min_transactions = 3;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  mon.observe("c", txn(0.0, "a"));  // a stray beacon connection
  mon.finish();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(mon.sessions_reported(), 0u);
}

TEST(StreamingMonitor, RejectsOutOfOrderPerClient) {
  // A record that starts before its client's previous one is dropped and
  // counted, never thrown. Order is per client: another client's record
  // at the same time is on time.
  std::vector<MonitoredSession> out;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out));
  mon.observe("c", txn(0.0, "a"));
  mon.observe("c", txn(10.0, "a"));
  EXPECT_NO_THROW(mon.observe("c", txn(5.0, "a")));
  mon.observe("d", txn(5.0, "a"));
  mon.observe("c", txn(15.0, "a"));
  EXPECT_EQ(mon.records_late(), 1u);
  mon.finish();
  ASSERT_EQ(out.size(), 1u);  // "d" holds one record: noise
  EXPECT_EQ(out[0].client, "c");
  ASSERT_EQ(out[0].transactions.size(), 3u);
  for (const auto& t : out[0].transactions) EXPECT_NE(t.start_s, 5.0);
}

TEST(StreamingMonitor, EndToEndBackToBackStreams) {
  // Feed real simulated back-to-back sessions through the monitor and
  // check the session count is close to the truth.
  std::vector<MonitoredSession> out;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out));
  std::size_t truth = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto stream = build_back_to_back(has::svc1_profile(), 5, seed);
    truth += stream.num_sessions;
    const std::string client = "client-" + std::to_string(seed);
    for (const auto& t : stream.merged) mon.observe(client, t);
  }
  mon.finish();
  EXPECT_GE(out.size(), truth / 2);       // most sessions recovered
  EXPECT_LE(out.size(), truth + truth / 2);
  for (const auto& s : out) {
    EXPECT_GE(s.predicted_class, 0);
    EXPECT_LE(s.predicted_class, 2);
    EXPECT_LE(s.start_s, s.end_s);
  }
}

TEST(StreamingMonitor, ProvisionalEstimatesMidSession) {
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.min_transactions = 2;
  cfg.provisional_every = 2;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  struct Seen {
    std::string client;
    std::size_t observed;
    int cls;
    double start_s, last_s;
  };
  std::vector<Seen> seen;
  mon.set_provisional_callback([&](const ProvisionalEstimate& e) {
    seen.push_back({std::string(e.client), e.transactions_observed,
                    e.predicted_class, e.session_start_s, e.last_activity_s});
  });

  trace::TlsLog fed;
  for (int i = 0; i < 7; ++i) {
    fed.push_back(txn(i * 5.0, "a"));
    mon.observe("c1", fed.back());
  }
  // Pending sizes 2, 4, 6 cross the every-2 cadence above min_transactions.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(mon.provisionals_reported(), 3u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const auto& e = seen[i];
    EXPECT_EQ(e.client, "c1");
    EXPECT_EQ(e.observed, 2 * (i + 1));
    EXPECT_EQ(e.start_s, 0.0);
    EXPECT_EQ(e.last_s, (2.0 * (i + 1) - 1.0) * 5.0);
    // The in-flight estimate is exactly what the estimator says about the
    // records observed so far — live accumulator == batch over the prefix.
    const trace::TlsLog prefix(fed.begin(),
                               fed.begin() + static_cast<std::ptrdiff_t>(
                                                 e.observed));
    EXPECT_EQ(e.cls, trained_estimator().predict(prefix));
  }
  mon.finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].predicted_class, trained_estimator().predict(fed));
}

TEST(StreamingMonitor, ProvisionalsOffByDefault) {
  StreamingMonitor mon(kView, trained_estimator(), ignore);
  std::size_t fired = 0;
  mon.set_provisional_callback(
      [&](const ProvisionalEstimate&) { ++fired; });
  for (int i = 0; i < 8; ++i) mon.observe("c", txn(i * 5.0, "a"));
  mon.finish();
  EXPECT_EQ(fired, 0u);  // provisional_every defaults to 0 = disabled
  EXPECT_EQ(mon.provisionals_reported(), 0u);
}

TEST(StreamingMonitor, EmitsMatchBatchPredictionAfterBurstSplit) {
  // After a burst-boundary split the live accumulator is rebuilt from the
  // surviving records; both the head and the remainder must classify
  // exactly as the batch estimator would.
  std::vector<MonitoredSession> out;
  MonitorConfig cfg;
  cfg.min_transactions = 2;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  mon.observe("c1", txn(0.0, "a"));
  mon.observe("c1", txn(5.0, "b"));
  mon.observe("c1", txn(20.0, "a"));
  mon.observe("c1", txn(40.0, "c"));
  mon.observe("c1", txn(40.5, "d"));
  mon.observe("c1", txn(41.0, "e"));
  mon.observe("c1", txn(41.5, "f"));
  mon.finish();
  ASSERT_EQ(out.size(), 2u);
  for (const auto& s : out) {
    EXPECT_EQ(s.predicted_class, trained_estimator().predict(s.transactions));
  }
}

/// Seeded multi-client feed, globally start-ordered. Every client plays
/// several sessions, each opening with a burst to fresh servers and then
/// running long enough for the monitor to fold settled records in blocks.
/// A session follows the previous one either back to back (a burst split)
/// or after an idle gap longer than any timeout used below.
struct ClientRecord {
  std::string client;
  trace::TlsTransaction txn;
};

std::vector<ClientRecord> multi_client_feed(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<ClientRecord> feed;
  for (int c = 0; c < 8; ++c) {
    const std::string client = "client-" + std::to_string(c);
    double t = 100.0 * unit(rng);
    const int sessions = 4 + static_cast<int>(3.0 * unit(rng));
    for (int s = 0; s < sessions; ++s) {
      const std::string prefix =
          client + "/s" + std::to_string(s) + "/srv";
      const auto record = [&](double start, int server) {
        const double dur = unit(rng) < 0.05 ? 0.0 : 30.0 * unit(rng);
        feed.push_back({client,
                        {.start_s = start,
                         .end_s = start + dur,
                         .ul_bytes = unit(rng) < 0.1 ? 0.0 : 2e4 * unit(rng),
                         .dl_bytes = 4e6 * unit(rng) * unit(rng),
                         .sni = prefix + std::to_string(server),
                         .http_count = 1}});
      };
      for (int b = 0; b < 5; ++b) {  // opening burst, fresh servers
        record(t, b);
        t += 0.2 * unit(rng);
      }
      const int body = 10 + static_cast<int>(80.0 * unit(rng));
      for (int i = 0; i < body; ++i) {
        t += 0.5 + 3.5 * unit(rng);
        record(t, static_cast<int>(8.0 * unit(rng)));
      }
      t += unit(rng) < 0.5 ? 1.0 + 9.0 * unit(rng)        // back to back
                           : 150.0 + 250.0 * unit(rng);  // idle gap
    }
  }
  std::stable_sort(feed.begin(), feed.end(),
                   [](const ClientRecord& a, const ClientRecord& b) {
                     return a.txn.start_s < b.txn.start_s;
                   });
  return feed;
}

TEST(StreamingMonitor, EmitsMatchBatchEstimatorAcrossProvisionalCadences) {
  // Whatever mix of settled-block folds, in-place head completion, head
  // re-folds after a provisional snapshot and eviction residues produced
  // a session's accumulator, its verdict must be the batch estimator's
  // over the emitted transactions, bit for bit, and the provisional
  // cadence must not change which sessions are emitted.
  const std::vector<ClientRecord> feed = multi_client_feed(2024);
  const QoeEstimator& est = trained_estimator();
  using Key = std::tuple<std::string, double, double, double, std::size_t,
                         int, double>;
  std::vector<std::vector<Key>> per_cadence;
  for (const std::size_t every :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{17}}) {
    SCOPED_TRACE(testing::Message() << "provisional_every " << every);
    MonitorConfig cfg;
    cfg.client_idle_timeout_s = 60.0;
    cfg.provisional_every = every;
    enum class Phase { kObserve, kAdvance, kFinish } phase = Phase::kObserve;
    std::size_t burst_splits = 0, idle_reopens = 0, evictions = 0,
                flushes = 0;
    std::vector<Key> keys;
    StreamingMonitor mon(
        kView, est,
        [&](const MonitoredSessionView& v) {
          const MonitoredSession s = v.to_owned();
          const auto proba = est.predict_proba(s.transactions);
          EXPECT_EQ(s.predicted_class, est.predict(s.transactions));
          EXPECT_EQ(s.confidence,
                    proba[static_cast<std::size_t>(s.predicted_class)]);
          keys.emplace_back(s.client, s.start_s, s.end_s, s.detected_s,
                            s.transactions.size(), s.predicted_class,
                            s.confidence);
          const double last_start = s.transactions.back().start_s;
          switch (phase) {
            case Phase::kObserve:
              ++(s.detected_s - last_start > cfg.client_idle_timeout_s
                     ? idle_reopens
                     : burst_splits);
              break;
            case Phase::kAdvance: ++evictions; break;
            case Phase::kFinish: ++flushes; break;
          }
        },
        cfg);
    std::size_t provisionals = 0;
    mon.set_provisional_callback(
        [&](const ProvisionalEstimate&) { ++provisionals; });
    for (std::size_t i = 0; i < feed.size(); ++i) {
      phase = Phase::kObserve;
      mon.observe(feed[i].client, feed[i].txn);
      // Watermarks in alternate stretches of the feed only, so idle
      // clients are evicted in some and reopened by their own next
      // record in others.
      if ((i / 400) % 2 == 0 && i % 25 == 0) {
        phase = Phase::kAdvance;
        mon.advance_time(feed[i].txn.start_s);
      }
    }
    phase = Phase::kFinish;
    mon.finish();

    EXPECT_GT(burst_splits, 0u);
    EXPECT_GT(idle_reopens, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(flushes, 0u);
    EXPECT_EQ(provisionals > 0, every > 0);
    std::sort(keys.begin(), keys.end());
    per_cadence.push_back(std::move(keys));
  }
  for (std::size_t i = 1; i < per_cadence.size(); ++i) {
    EXPECT_EQ(per_cadence[i], per_cadence[0]) << "cadence #" << i;
  }
}

TEST(StreamingMonitor, MatchesOfflineSplitOnSingleClient) {
  // The online splitter should agree with the offline heuristic when fed
  // the same merged log.
  const auto stream = build_back_to_back(has::svc1_profile(), 6, 9);
  const auto offline = split_sessions(stream.merged);
  MonitorConfig cfg;
  cfg.client_idle_timeout_s = 1e9;  // isolate the burst heuristic
  std::size_t offline_kept = 0;
  for (const auto& s : offline) {
    offline_kept += s.size() >= cfg.min_transactions;
  }

  std::vector<MonitoredSession> out;
  StreamingMonitor mon(kView, trained_estimator(), keep_into(out), cfg);
  for (const auto& t : stream.merged) mon.observe("c", t);
  mon.finish();
  EXPECT_EQ(out.size(), offline_kept);
}

}  // namespace
}  // namespace droppkt::core
