#include "alert/alert_manager.hpp"

#include <gtest/gtest.h>

#include "util/expect.hpp"

namespace droppkt::alert {
namespace {

LocationWindow win(double low_bound, double high_bound = 1.0,
                   double sessions = 20.0, bool degraded = true) {
  LocationWindow w;
  w.effective_sessions = sessions;
  w.effective_low = low_bound * sessions;
  w.interval = {low_bound, high_bound};
  w.degraded = degraded;
  return w;
}

ManagerConfig cfg(double raise = 0.5, double clear = 0.35,
                  double cooldown = 100.0) {
  ManagerConfig c;
  c.defaults.raise_rate = raise;
  c.defaults.clear_rate = clear;
  c.defaults.clear_cooldown_s = cooldown;
  return c;
}

TEST(AlertManager, RaisesOnCredibleDegradation) {
  AlertManager mgr(cfg());
  EXPECT_EQ(mgr.update("cell", win(0.4), 10.0), nullptr);  // under raise_rate
  const AlertEvent* ev = mgr.update("cell", win(0.7, 0.95), 20.0);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->kind, AlertEvent::Kind::kRaised);
  EXPECT_EQ(ev->location, "cell");
  EXPECT_EQ(ev->id, 1u);
  EXPECT_EQ(ev->time_s, 20.0);
  EXPECT_EQ(ev->rate_low, 0.7);
  EXPECT_EQ(ev->rate_high, 0.95);
  EXPECT_TRUE(mgr.is_raised("cell"));
  EXPECT_EQ(mgr.open_alerts(), 1u);
  // Staying degraded does not re-raise.
  EXPECT_EQ(mgr.update("cell", win(0.8), 30.0), nullptr);
  EXPECT_EQ(mgr.total_raised(), 1u);
}

TEST(AlertManager, DetectorDegradedFlagIsRequired) {
  AlertManager mgr(cfg());
  // High lower bound but the detector's evidence floor said no.
  EXPECT_EQ(mgr.update("cell", win(0.9, 1.0, 3.0, /*degraded=*/false), 1.0),
            nullptr);
  EXPECT_FALSE(mgr.is_raised("cell"));
}

TEST(AlertManager, ClearRequiresContinuousCooldown) {
  AlertManager mgr(cfg(0.5, 0.35, 100.0));
  ASSERT_NE(mgr.update("cell", win(0.7), 0.0), nullptr);
  // Healthy, but the cooldown has not elapsed yet.
  EXPECT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 50.0), nullptr);
  EXPECT_TRUE(mgr.is_raised("cell"));
  // A degraded blip resets the cooldown clock.
  EXPECT_EQ(mgr.update("cell", win(0.6), 80.0), nullptr);
  EXPECT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 120.0), nullptr);
  // 100s after the blip's healthy restart, not after the first healthy look.
  EXPECT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 170.0), nullptr);
  const AlertEvent* ev =
      mgr.update("cell", win(0.1, 0.4, 20.0, false), 220.0);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->kind, AlertEvent::Kind::kCleared);
  EXPECT_FALSE(mgr.is_raised("cell"));
  EXPECT_EQ(mgr.open_alerts(), 0u);
  EXPECT_EQ(mgr.total_cleared(), 1u);
}

TEST(AlertManager, MidCooldownRateMustStayUnderClearRate) {
  // Lower bound between clear_rate and raise_rate while raised: neither
  // healthy nor raise-worthy — the alert stays open and cooldown resets.
  AlertManager mgr(cfg(0.5, 0.35, 100.0));
  ASSERT_NE(mgr.update("cell", win(0.7), 0.0), nullptr);
  EXPECT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 10.0), nullptr);
  EXPECT_EQ(mgr.update("cell", win(0.4, 0.6, 20.0, false), 60.0), nullptr);
  // Healthy again at 70; clear fires at 170, not 110.
  EXPECT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 70.0), nullptr);
  EXPECT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 150.0), nullptr);
  EXPECT_NE(mgr.update("cell", win(0.1, 0.4, 20.0, false), 170.0), nullptr);
}

TEST(AlertManager, ZeroCooldownClearsImmediately) {
  AlertManager mgr(cfg(0.5, 0.35, 0.0));
  ASSERT_NE(mgr.update("cell", win(0.7), 0.0), nullptr);
  const AlertEvent* ev =
      mgr.update("cell", win(0.1, 0.4, 20.0, false), 1.0);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->kind, AlertEvent::Kind::kCleared);
}

TEST(AlertManager, ReRaiseGetsFreshId) {
  AlertManager mgr(cfg(0.5, 0.35, 0.0));
  ASSERT_EQ(mgr.update("cell", win(0.7), 0.0)->id, 1u);
  ASSERT_EQ(mgr.update("cell", win(0.1, 0.4, 20.0, false), 10.0)->id, 2u);
  const AlertEvent* ev = mgr.update("cell", win(0.8), 20.0);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->kind, AlertEvent::Kind::kRaised);
  EXPECT_EQ(ev->id, 3u);
  EXPECT_EQ(mgr.total_raised(), 2u);
}

TEST(AlertManager, LogIsBoundedWithMonotoneIds) {
  ManagerConfig c = cfg(0.5, 0.35, 0.0);
  c.max_log = 4;
  AlertManager mgr(std::move(c));
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(mgr.update("cell", win(0.7), i * 10.0), nullptr);
    ASSERT_NE(mgr.update("cell", win(0.1, 0.4, 20.0, false), i * 10.0 + 5.0),
              nullptr);
  }
  const auto& log = mgr.log();
  ASSERT_EQ(log.size(), 4u);  // 6 events, oldest 2 dropped
  EXPECT_EQ(log.front().id, 3u);
  EXPECT_EQ(log.back().id, 6u);
  EXPECT_EQ(mgr.total_raised(), 3u);  // counters survive log truncation
}

TEST(AlertManager, Validates) {
  ManagerConfig inverted = cfg(0.4, 0.5, 10.0);  // clear above raise
  EXPECT_THROW(AlertManager{inverted}, droppkt::ContractViolation);
  ManagerConfig bad_log = cfg();
  bad_log.max_log = 0;
  EXPECT_THROW(AlertManager{bad_log}, droppkt::ContractViolation);
  AlertManager mgr(cfg());
  EXPECT_THROW(mgr.update("", win(0.7), 1.0), droppkt::ContractViolation);
}

}  // namespace
}  // namespace droppkt::alert
