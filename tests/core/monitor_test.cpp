#include "core/monitor.hpp"

#include <gtest/gtest.h>

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
  StreamingMonitor mon(kView, trained_estimator(), ignore);
  mon.observe("c", txn(10.0, "a"));
  EXPECT_THROW(mon.observe("c", txn(5.0, "a")), droppkt::ContractViolation);
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
