#include "alert/location_detector.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/expect.hpp"

namespace droppkt::alert {
namespace {

TEST(WilsonInterval, ZeroTrialsIsVacuous) {
  const auto ci = wilson_interval_real(0.0, 0.0);
  EXPECT_EQ(ci.low, 0.0);
  EXPECT_EQ(ci.high, 1.0);
}

TEST(WilsonInterval, ContainsPointEstimate) {
  for (const double k : {0.0, 3.0, 10.0, 20.0}) {
    const auto ci = wilson_interval_real(k, 20.0);
    const double p = k / 20.0;
    EXPECT_LE(ci.low, p + 1e-12);
    EXPECT_GE(ci.high, p - 1e-12);
    EXPECT_GE(ci.low, 0.0);
    EXPECT_LE(ci.high, 1.0);
  }
}

TEST(WilsonInterval, NarrowsWithSamples) {
  const auto small = wilson_interval_real(5.0, 10.0);
  const auto large = wilson_interval_real(500.0, 1000.0);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(WilsonInterval, KnownValue) {
  // 8/10 at z=1.96: Wilson interval ~ (0.49, 0.94).
  const auto ci = wilson_interval_real(8.0, 10.0);
  EXPECT_NEAR(ci.low, 0.49, 0.02);
  EXPECT_NEAR(ci.high, 0.94, 0.02);
}

TEST(WilsonInterval, Validates) {
  EXPECT_THROW(wilson_interval_real(5.0, 3.0), droppkt::ContractViolation);
  EXPECT_THROW(wilson_interval_real(1.0, 2.0, 0.0),
               droppkt::ContractViolation);
}

TEST(WilsonInterval, ZeroSuccessesAtTinyN) {
  // p-hat = 0: the lower bound is exactly 0, the upper bound is well away
  // from both endpoints (5 clean trials don't rule out a sizable rate).
  const auto ci = wilson_interval_real(0.0, 5.0);
  EXPECT_NEAR(ci.low, 0.0, 1e-12);
  EXPECT_GT(ci.high, 0.3);
  EXPECT_LT(ci.high, 0.7);
}

TEST(WilsonInterval, AllSuccessesAtTinyN) {
  // p-hat = 1: upper bound pins to 1, lower bound stays clear of it —
  // 3/3 is nowhere near credible evidence of a high rate.
  const auto ci = wilson_interval_real(3.0, 3.0);
  EXPECT_NEAR(ci.high, 1.0, 1e-12);
  EXPECT_GT(ci.low, 0.2);
  EXPECT_LT(ci.low, 0.7);
}

TEST(WilsonIntervalReal, FractionalCountsInterpolate) {
  // Effective counts between two whole-number cases land between their
  // intervals: decaying a window shrinks n and widens the interval.
  const auto small = wilson_interval_real(4.5, 9.0);
  const auto large = wilson_interval_real(9.0, 18.0);
  EXPECT_LT(large.high - large.low, small.high - small.low);
  EXPECT_EQ(wilson_interval_real(0.0, 0.0).low, 0.0);
  EXPECT_EQ(wilson_interval_real(0.0, 0.0).high, 1.0);
}

TEST(WilsonIntervalReal, Validates) {
  EXPECT_THROW(wilson_interval_real(2.0, 1.0), droppkt::ContractViolation);
  EXPECT_THROW(wilson_interval_real(-0.5, 1.0), droppkt::ContractViolation);
  EXPECT_THROW(wilson_interval_real(0.5, 1.0, 0.0),
               droppkt::ContractViolation);
}

DetectorConfig decay_cfg(double half_life = 100.0, double min_eff = 0.0) {
  DetectorConfig cfg;
  cfg.window = WindowKind::kDecay;
  cfg.half_life_s = half_life;
  cfg.min_effective_sessions = min_eff;
  return cfg;
}

TEST(LocationDetector, DecayHalvesWeightPerHalfLife) {
  LocationDetector det(decay_cfg(100.0));
  det.observe("cell", 0.0, true);
  EXPECT_NEAR(det.window("cell", 0.0).effective_sessions, 1.0, 1e-12);
  EXPECT_NEAR(det.window("cell", 100.0).effective_sessions, 0.5, 1e-12);
  EXPECT_NEAR(det.window("cell", 200.0).effective_sessions, 0.25, 1e-12);
  EXPECT_NEAR(det.window("cell", 200.0).effective_low, 0.25, 1e-12);
}

TEST(LocationDetector, SlidingWindowExpiresEvents) {
  DetectorConfig cfg;
  cfg.window = WindowKind::kSliding;
  cfg.window_s = 100.0;
  cfg.min_effective_sessions = 0.0;
  LocationDetector det(cfg);
  det.observe("cell", 0.0, true);
  det.observe("cell", 50.0, false);
  EXPECT_NEAR(det.window("cell", 99.0).effective_sessions, 2.0, 1e-12);
  // The t=0 event ages out exactly at t=100 (cutoff is inclusive).
  EXPECT_NEAR(det.window("cell", 100.0).effective_sessions, 1.0, 1e-12);
  EXPECT_NEAR(det.window("cell", 100.0).effective_low, 0.0, 1e-12);
  EXPECT_NEAR(det.window("cell", 151.0).effective_sessions, 0.0, 1e-12);
}

TEST(LocationDetector, RetractionCancelsDecayedEvidenceExactly) {
  LocationDetector det(decay_cfg(100.0));
  det.observe("cell", 0.0, true);
  det.retract("cell", 50.0, /*evidence_time_s=*/0.0, true);
  const auto w = det.window("cell", 50.0);
  EXPECT_NEAR(w.effective_sessions, 0.0, 1e-12);
  EXPECT_NEAR(w.effective_low, 0.0, 1e-12);
  EXPECT_GE(w.effective_sessions, 0.0);  // never negative
}

TEST(LocationDetector, RetractionFlipsVerdictWithoutDoubleCounting) {
  // A session first judged low, later re-judged fine: after retract +
  // re-observe it contributes exactly one (non-low) trial.
  LocationDetector det(decay_cfg(1000.0));
  det.observe("cell", 10.0, true);
  det.retract("cell", 20.0, 10.0, true);
  det.observe("cell", 20.0, false);
  const auto w = det.window("cell", 20.0);
  EXPECT_NEAR(w.effective_sessions, 1.0, 1e-9);
  EXPECT_NEAR(w.effective_low, 0.0, 1e-9);
}

TEST(LocationDetector, RetractingExpiredSlidingEvidenceIsNoop) {
  DetectorConfig cfg;
  cfg.window = WindowKind::kSliding;
  cfg.window_s = 50.0;
  cfg.min_effective_sessions = 0.0;
  LocationDetector det(cfg);
  det.observe("cell", 0.0, true);
  det.observe("cell", 70.0, true);
  det.retract("cell", 80.0, /*evidence_time_s=*/0.0, true);  // already gone
  const auto w = det.window("cell", 80.0);
  EXPECT_NEAR(w.effective_sessions, 1.0, 1e-12);
  EXPECT_NEAR(w.effective_low, 1.0, 1e-12);
}

TEST(LocationDetector, DegradedRequiresCredibleRateNotJustHighRate) {
  DetectorConfig cfg = decay_cfg(1e6, /*min_eff=*/8.0);
  cfg.alert_rate = 0.5;
  LocationDetector det(cfg);
  // 18/20 low within a negligible decay horizon: credibly above 0.5.
  for (int i = 0; i < 20; ++i) det.observe("bad", i, i < 18);
  // 6/10 low: above 0.5 in rate, but the lower bound is not.
  for (int i = 0; i < 10; ++i) det.observe("noisy", i, i < 6);
  EXPECT_TRUE(det.window("bad", 20.0).degraded);
  EXPECT_FALSE(det.window("noisy", 20.0).degraded);
}

TEST(LocationDetector, MinEffectiveSessionsGatesDegraded) {
  DetectorConfig cfg = decay_cfg(1e6, /*min_eff=*/8.0);
  LocationDetector det(cfg);
  // All at t=0 so the effective count is exactly whole: the floor is an
  // inclusive boundary.
  for (int i = 0; i < 7; ++i) det.observe("small", 0.0, true);
  EXPECT_FALSE(det.window("small", 0.0).degraded);
  det.observe("small", 0.0, true);
  EXPECT_TRUE(det.window("small", 0.0).degraded);
  // Decay can push a location back under the floor.
  EXPECT_FALSE(det.window("small", 3e6).degraded);
}

TEST(LocationDetector, DegradedOrderingIsTotal) {
  DetectorConfig cfg = decay_cfg(1e6, /*min_eff=*/5.0);
  LocationDetector det(cfg);
  for (int i = 0; i < 20; ++i) det.observe("b-worse", i, i < 19);
  for (int i = 0; i < 20; ++i) det.observe("c-bad", i, i < 15);
  // Identical evidence to c-bad, alphabetically earlier: name breaks tie.
  for (int i = 0; i < 20; ++i) det.observe("a-bad", i, i < 15);
  const auto out = det.degraded(20.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, "b-worse");
  EXPECT_EQ(out[1].first, "a-bad");
  EXPECT_EQ(out[2].first, "c-bad");
}

TEST(LocationDetector, SnapshotReportsEveryTrackedLocation) {
  LocationDetector det(decay_cfg(100.0));
  det.observe("b", 0.0, true);
  det.observe("a", 1.0, false);
  const auto snap = det.snapshot_at(2.0);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");  // name order
  EXPECT_EQ(snap[1].first, "b");
  EXPECT_FALSE(snap[0].second.degraded);
}

TEST(LocationDetector, SnapshotAtProjectsDecayWithoutMutating) {
  LocationDetector det(decay_cfg(100.0));
  det.observe("cell", 0.0, true);
  // snapshot_at is a pure evaluation: projecting one half-life into the
  // future halves the weight, and asking again at t=0 still sees the
  // undecayed state.
  const auto future = det.snapshot_at(100.0);
  ASSERT_EQ(future.size(), 1u);
  EXPECT_NEAR(future[0].second.effective_sessions, 0.5, 1e-12);
  const auto now = det.snapshot_at(0.0);
  EXPECT_NEAR(now[0].second.effective_sessions, 1.0, 1e-12);
}

TEST(LocationDetector, HorizonCurveTracksProjectedDecay) {
  DetectorConfig cfg = decay_cfg(100.0, /*min_eff=*/2.0);
  cfg.alert_rate = 0.3;
  LocationDetector det(cfg);
  for (int i = 0; i < 10; ++i) det.observe("cell", 0.0, true);
  ASSERT_TRUE(det.window("cell", 0.0).degraded);

  const auto curve = det.horizon_curve("cell", 0.0, 200.0, 3);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_NEAR(curve[0].effective_sessions, 10.0, 1e-9);
  EXPECT_NEAR(curve[1].effective_sessions, 5.0, 1e-9);  // +1 half-life
  EXPECT_NEAR(curve[2].effective_sessions, 2.5, 1e-9);  // +2 half-lives
  // Pure decay of all-low evidence: still degraded until the effective
  // count crosses the floor.
  EXPECT_TRUE(curve[0].degraded);
  EXPECT_TRUE(curve[2].degraded);
  const auto far = det.horizon_curve("cell", 0.0, 2000.0, 2);
  EXPECT_FALSE(far[1].degraded);  // decayed under min_effective_sessions
}

TEST(LocationDetector, HorizonCurveOfUnseenLocationIsVacuous) {
  const LocationDetector det(decay_cfg());
  const auto curve = det.horizon_curve("nowhere", 0.0, 100.0, 4);
  ASSERT_EQ(curve.size(), 4u);
  for (const auto& w : curve) {
    EXPECT_EQ(w.effective_sessions, 0.0);
    EXPECT_FALSE(w.degraded);
  }
}

TEST(LocationDetector, HorizonCurveValidates) {
  LocationDetector det(decay_cfg());
  det.observe("cell", 0.0, true);
  EXPECT_THROW(det.horizon_curve("cell", 0.0, 100.0, 1),
               droppkt::ContractViolation);
  EXPECT_THROW(det.horizon_curve("cell", 0.0, -1.0, 3),
               droppkt::ContractViolation);
}

TEST(LocationDetector, UnseenLocationIsVacuous) {
  const LocationDetector det(decay_cfg());
  const auto w = det.window("nowhere", 10.0);
  EXPECT_EQ(w.effective_sessions, 0.0);
  EXPECT_EQ(w.interval.low, 0.0);
  EXPECT_EQ(w.interval.high, 1.0);
  EXPECT_FALSE(w.degraded);
}

TEST(LocationDetector, EvictStaleDropsDecayedLocations) {
  LocationDetector det(decay_cfg(10.0));
  det.observe("old", 0.0, true);
  det.observe("fresh", 1000.0, true);
  EXPECT_EQ(det.tracked_locations(), 2u);
  EXPECT_EQ(det.evict_stale(1000.0), 1u);
  EXPECT_EQ(det.tracked_locations(), 1u);
  EXPECT_NEAR(det.window("fresh", 1000.0).effective_sessions, 1.0, 1e-12);
}

TEST(LocationDetector, Validates) {
  DetectorConfig bad;
  bad.half_life_s = 0.0;
  EXPECT_THROW(LocationDetector{bad}, droppkt::ContractViolation);
  DetectorConfig bad_rate;
  bad_rate.alert_rate = 1.0;
  EXPECT_THROW(LocationDetector{bad_rate}, droppkt::ContractViolation);
  LocationDetector det(decay_cfg());
  EXPECT_THROW(det.observe("", 0.0, true), droppkt::ContractViolation);
  det.observe("cell", 10.0, true);
  EXPECT_THROW(det.retract("cell", 5.0, 10.0, true),
               droppkt::ContractViolation);
}


TEST(LocationDetector, EvictStaleDropsDecayedLocationsOnly) {
  LocationDetector det(decay_cfg(10.0));
  det.observe("old", 0.0, true);
  det.observe("live", 500.0, true);
  EXPECT_EQ(det.tracked_locations(), 2u);
  // At t=500 "old" has decayed through 50 half-lives; "live" is fresh.
  EXPECT_EQ(det.evict_stale(500.0, 1e-6), 1u);
  EXPECT_EQ(det.tracked_locations(), 1u);
  EXPECT_GT(det.window("live", 500.0).effective_sessions, 0.9);
  // An evicted location that re-appears starts from exactly zero history.
  det.observe("old", 500.0, false);
  EXPECT_NEAR(det.window("old", 500.0).effective_sessions, 1.0, 1e-12);
  EXPECT_NEAR(det.window("old", 500.0).effective_low, 0.0, 1e-12);
}

TEST(LocationDetector, EvictStaleHonorsKeepPredicate) {
  LocationDetector det(decay_cfg(10.0));
  det.observe("pinned", 0.0, true);
  det.observe("doomed", 0.0, true);
  const std::size_t dropped = det.evict_stale(
      1000.0, 1e-6, [](const std::string& loc) { return loc == "pinned"; });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(det.tracked_locations(), 1u);
  // The survivor is the kept one: its (decayed-to-nothing) state remains
  // visible to snapshots, which is what alert-lifecycle sweeps need.
  EXPECT_EQ(det.snapshot_at(1000.0).size(), 1u);
  EXPECT_EQ(det.snapshot_at(1000.0)[0].first, "pinned");
}

}  // namespace
}  // namespace droppkt::alert
