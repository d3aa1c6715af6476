#include "core/session_id.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/dataset_builder.hpp"
#include "util/expect.hpp"

namespace droppkt::core {
namespace {

trace::TlsTransaction txn(double start, const std::string& sni) {
  return {.start_s = start, .end_s = start + 10.0, .ul_bytes = 100.0,
          .dl_bytes = 1000.0, .sni = sni, .http_count = 1};
}

TEST(SessionId, EmptyLog) {
  EXPECT_TRUE(detect_session_starts({}).empty());
}

TEST(SessionId, FirstTransactionAlwaysStarts) {
  const trace::TlsLog log{txn(0.0, "a")};
  const auto starts = detect_session_starts(log);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_TRUE(starts[0]);
}

TEST(SessionId, QuietContinuationNotFlagged) {
  trace::TlsLog log;
  // Sparse transactions to familiar servers: one session.
  for (int i = 0; i < 10; ++i) log.push_back(txn(i * 10.0, "cdn.example"));
  const auto starts = detect_session_starts(log);
  for (std::size_t i = 1; i < starts.size(); ++i) EXPECT_FALSE(starts[i]);
}

TEST(SessionId, BurstOfFreshServersFlagged) {
  trace::TlsLog log;
  // Session 1 on servers a/b.
  log.push_back(txn(0.0, "a"));
  log.push_back(txn(0.5, "b"));
  log.push_back(txn(20.0, "a"));
  // Session 2 starts at t=60 with a burst to fresh servers c/d/e.
  log.push_back(txn(60.0, "c"));
  log.push_back(txn(60.4, "d"));
  log.push_back(txn(60.9, "e"));
  log.push_back(txn(61.5, "c"));
  const auto starts = detect_session_starts(log);
  EXPECT_TRUE(starts[3]);
  // Burst members are within the refractory window.
  EXPECT_FALSE(starts[4]);
  EXPECT_FALSE(starts[5]);
}

TEST(SessionId, BurstToFamiliarServersNotFlagged) {
  trace::TlsLog log;
  log.push_back(txn(0.0, "a"));
  log.push_back(txn(0.5, "b"));
  log.push_back(txn(1.0, "c"));
  // Mid-session burst to the SAME servers (e.g. parallel range requests).
  log.push_back(txn(30.0, "a"));
  log.push_back(txn(30.2, "b"));
  log.push_back(txn(30.4, "c"));
  log.push_back(txn(30.6, "a"));
  const auto starts = detect_session_starts(log);
  for (std::size_t i = 1; i < starts.size(); ++i) EXPECT_FALSE(starts[i]);
}

TEST(SessionId, SmallBurstBelowNminNotFlagged) {
  trace::TlsLog log;
  log.push_back(txn(0.0, "a"));
  // Only two fresh transactions follow within W: N == 2 is not > Nmin.
  log.push_back(txn(50.0, "x"));
  log.push_back(txn(50.5, "y"));
  log.push_back(txn(51.0, "z"));
  const auto starts = detect_session_starts(log);
  // Transaction 1 has succeeding {y, z}: N=2, not > 2.
  EXPECT_FALSE(starts[1]);
}

TEST(SessionId, ParametersAreTunable) {
  trace::TlsLog log;
  log.push_back(txn(0.0, "a"));
  log.push_back(txn(50.0, "x"));
  log.push_back(txn(50.5, "y"));
  log.push_back(txn(51.0, "z"));
  SessionIdParams loose;
  loose.n_min = 1;  // now N=2 > 1 suffices
  const auto starts = detect_session_starts(log, loose);
  EXPECT_TRUE(starts[1]);
}

TEST(SessionId, RequiresSortedInput) {
  trace::TlsLog log{txn(5.0, "a"), txn(1.0, "b")};
  EXPECT_THROW(detect_session_starts(log), droppkt::ContractViolation);
}

TEST(SessionId, ValidatesParams) {
  SessionIdParams bad;
  bad.window_s = 0.0;
  EXPECT_THROW(detect_session_starts({}, bad), droppkt::ContractViolation);
  bad = {};
  bad.delta_min = 1.5;
  EXPECT_THROW(detect_session_starts({}, bad), droppkt::ContractViolation);
}

TEST(SplitSessions, SplitsAtDetectedBoundaries) {
  trace::TlsLog log;
  log.push_back(txn(0.0, "a"));
  log.push_back(txn(10.0, "a"));
  // New-session burst: more than Nmin=2 succeeding fresh transactions
  // within W=3 s of the first one.
  log.push_back(txn(60.0, "c"));
  log.push_back(txn(60.3, "d"));
  log.push_back(txn(60.6, "e"));
  log.push_back(txn(61.2, "f"));
  log.push_back(txn(70.0, "c"));
  const auto sessions = split_sessions(log);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].size(), 2u);
  EXPECT_EQ(sessions[1].size(), 5u);
}

// The headline reproduction: back-to-back Svc1 sessions are recovered with
// high accuracy (paper Table 5: 89% of new sessions, 98% of existing).
TEST(SessionId, BackToBackStreamsRecovered) {
  int tp = 0, fn = 0, fp = 0, tn = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto stream = build_back_to_back(has::svc1_profile(), 6, seed);
    const auto pred = detect_session_starts(stream.merged);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (stream.truth_new[i] && pred[i]) ++tp;
      else if (stream.truth_new[i]) ++fn;
      else if (pred[i]) ++fp;
      else ++tn;
    }
  }
  const double new_recall = static_cast<double>(tp) / (tp + fn);
  const double existing_acc = static_cast<double>(tn) / (tn + fp);
  EXPECT_GT(new_recall, 0.6);
  EXPECT_GT(existing_acc, 0.95);
}

TEST(SessionId, TimeoutHeuristicWouldFail) {
  // The paper's motivation: back-to-back sessions overlap, so a gap-based
  // rule sees no boundary. Verify overlap actually occurs in our streams.
  const auto stream = build_back_to_back(has::svc1_profile(), 4, 5);
  bool any_overlap_at_boundary = false;
  for (std::size_t i = 0; i < stream.merged.size(); ++i) {
    if (!stream.truth_new[i] || i == 0) continue;
    // Does any earlier transaction still extend past this session start?
    for (std::size_t j = 0; j < i; ++j) {
      if (stream.merged[j].end_s > stream.merged[i].start_s) {
        any_overlap_at_boundary = true;
      }
    }
  }
  EXPECT_TRUE(any_overlap_at_boundary);
}


// ---------------------------------------------------------------------------
// IncrementalBoundaryScan: the streaming form must make byte-identical
// split decisions to re-running the batch heuristic on every arrival and
// cutting at the first detected start — over adversarial random windows.
// ---------------------------------------------------------------------------

/// Reference decision: the batch heuristic over the equivalent
/// transaction log (SNI ref n becomes hostname "n", so ref equality is
/// string equality), cut at the first start.
std::size_t rescan_first_start(std::span<const TlsRecord> window,
                               const SessionIdParams& params) {
  trace::TlsLog log;
  log.reserve(window.size());
  for (const TlsRecord& r : window) {
    log.push_back({.start_s = r.start_s,
                   .end_s = r.end_s,
                   .ul_bytes = r.ul_bytes,
                   .dl_bytes = r.dl_bytes,
                   .sni = std::to_string(r.sni_ref),
                   .http_count = r.http_count});
  }
  const std::vector<bool> starts = detect_session_starts(log, params);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    if (starts[i]) return i;
  }
  return 0;
}

void run_incremental_vs_rescan(const SessionIdParams& params,
                               std::uint32_t seed, int records) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> chunk_gap(0.2, 2.5);
  std::uniform_real_distribution<double> burst_gap(0.0, 0.4);
  std::uniform_int_distribution<std::uint32_t> familiar_sni(0, 7);
  std::uniform_int_distribution<int> burst_len(2, 6);
  std::uniform_int_distribution<int> coin(0, 99);

  std::vector<TlsRecord> window;
  IncrementalBoundaryScan scan;
  double now = 0.0;
  std::uint32_t next_fresh_sni = 100;  // never overlaps the familiar pool
  std::size_t cuts = 0;
  std::size_t max_settled = 0;  // largest settled() since the last cut
  int burst_left = 0;
  bool burst_fresh = false;

  for (int n = 0; n < records; ++n) {
    if (burst_left == 0 && coin(rng) < 8) {
      // Occasionally open a burst; fresh-server bursts are real session
      // starts, familiar-server bursts are the heuristic's hard negative.
      burst_left = burst_len(rng);
      burst_fresh = coin(rng) < 70;
    }
    double gap = chunk_gap(rng);
    std::uint32_t sni = familiar_sni(rng);
    if (burst_left > 0) {
      --burst_left;
      gap = burst_gap(rng);
      if (burst_fresh) sni = next_fresh_sni++;
    }
    now += gap;
    window.push_back(TlsRecord{.start_s = now,
                               .end_s = now + 5.0,
                               .ul_bytes = 100.0,
                               .dl_bytes = 1000.0,
                               .sni_ref = sni,
                               .http_count = 1});
    const std::size_t expect = rescan_first_start(window, params);
    const std::size_t got = scan.on_append(window, params);
    ASSERT_EQ(got, expect)
        << "diverged at record " << n << " (window " << window.size()
        << ", seed " << seed << ")";
    // Settled-prefix contract: settled() stays inside the window, claims
    // only positions whose W-second look-ahead has closed, and no cut
    // ever falls below a prefix it called settled.
    const std::size_t settled = scan.settled();
    ASSERT_LE(settled, window.size()) << "record " << n << ", seed " << seed;
    if (settled > 0) {
      ASSERT_GT(window.back().start_s - window[settled - 1].start_s,
                params.window_s)
          << "settled() claims an open position at record " << n
          << ", seed " << seed;
    }
    max_settled = std::max(max_settled, settled);
    if (got != 0) {
      ASSERT_GE(got, max_settled)
          << "cut below the settled prefix at record " << n << ", seed "
          << seed;
      ++cuts;
      window.erase(window.begin(),
                   window.begin() + static_cast<std::ptrdiff_t>(got));
      scan.rebuild(window, params);
      ASSERT_EQ(scan.settled(), 0u) << "record " << n << ", seed " << seed;
      max_settled = 0;
    }
  }
  // The generator must actually have produced splits, or the test is
  // vacuous.
  EXPECT_GT(cuts, 0u) << "seed " << seed;
}

TEST(IncrementalBoundaryScan, MatchesRescanOnRandomWindows) {
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    run_incremental_vs_rescan(SessionIdParams{}, seed, 4000);
  }
}

TEST(IncrementalBoundaryScan, MatchesRescanUnderTunedParams) {
  SessionIdParams params;
  params.window_s = 5.0;
  params.n_min = 3;
  params.delta_min = 0.6;
  for (const std::uint32_t seed : {10u, 11u}) {
    run_incremental_vs_rescan(params, seed, 4000);
  }
}

TEST(IncrementalBoundaryScan, ResetForgetsWindowState) {
  // Feed a window, reset, then replay the same records: decisions must
  // match a fresh scan (no counters leak across the reset).
  SessionIdParams params;
  std::mt19937 rng(77);
  std::vector<TlsRecord> window;
  IncrementalBoundaryScan scan;
  double now = 0.0;
  for (int i = 0; i < 50; ++i) {
    now += 1.0;
    window.push_back(TlsRecord{.start_s = now, .end_s = now + 2.0,
                               .ul_bytes = 1.0, .dl_bytes = 1.0,
                               .sni_ref = static_cast<std::uint32_t>(i % 3),
                               .http_count = 1});
    scan.on_append(window, params);
  }
  scan.reset();
  window.clear();
  for (int i = 0; i < 50; ++i) {
    now += 1.0;
    window.push_back(TlsRecord{.start_s = now, .end_s = now + 2.0,
                               .ul_bytes = 1.0, .dl_bytes = 1.0,
                               .sni_ref = static_cast<std::uint32_t>(i % 3),
                               .http_count = 1});
    const std::size_t expect = rescan_first_start(window, params);
    ASSERT_EQ(scan.on_append(window, params), expect) << "record " << i;
  }
}

}  // namespace
}  // namespace droppkt::core
