#include "core/feature_accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/tls_features.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace droppkt::core {
namespace {

using util::Rng;

/// Randomized proxy-shaped log: overlapping transactions, heavy-tailed
/// sizes, occasional zero-duration and zero-upload records.
trace::TlsLog random_log(Rng& rng, std::size_t n) {
  trace::TlsLog log;
  log.reserve(n);
  double t = rng.uniform(0.0, 3.0);
  for (std::size_t i = 0; i < n; ++i) {
    trace::TlsTransaction x;
    x.start_s = t;
    x.end_s = t + (rng.uniform01() < 0.08 ? 0.0 : rng.exponential(0.15));
    x.dl_bytes = rng.uniform01() < 0.05 ? 0.0 : rng.exponential(1e-5);
    x.ul_bytes = rng.uniform01() < 0.12 ? 0.0 : rng.exponential(1e-3);
    log.push_back(x);
    t += rng.exponential(0.4);
  }
  return log;
}

void shuffle_log(trace::TlsLog& log, Rng& rng) {
  for (std::size_t i = log.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, i - 1));
    std::swap(log[i - 1], log[j]);
  }
}

std::vector<double> accumulate(const trace::TlsLog& log,
                               const TlsFeatureConfig& config = {}) {
  TlsFeatureAccumulator acc(config);
  for (const auto& t : log) acc.observe(t);
  return acc.snapshot();
}

// EXPECT_EQ on doubles is exact — the contract is bit-identity, not
// tolerance.
void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "feature " << i;
  }
}

// Snapshot after every k-th observe, the cadence of a monitor's
// provisional estimates, and compare each snapshot bit for bit with the
// batch extractor over the same prefix. Short cadences make the samples
// merge small unsorted tails into their sorted prefix; long ones (and the
// batch extractor itself) answer min/median/max by selection over the
// unsorted tail, or sort the samples when extended stats need the
// moments. Returns the final snapshot.
std::vector<double> expect_cadence_matches_batch(
    const trace::TlsLog& log, std::size_t k, const TlsFeatureConfig& config) {
  TlsFeatureAccumulator acc(config);
  trace::TlsLog prefix;
  std::vector<double> snap;
  for (std::size_t i = 0; i < log.size(); ++i) {
    acc.observe(log[i]);
    prefix.push_back(log[i]);
    if ((i + 1) % k != 0 && i + 1 != log.size()) continue;
    SCOPED_TRACE(testing::Message() << "cadence " << k << ", prefix of "
                                    << prefix.size() << ", extended "
                                    << config.extended_stats);
    snap = acc.snapshot();
    expect_bit_identical(snap, extract_tls_features(prefix, config));
  }
  return snap;
}

const std::size_t kCadences[] = {1, 4, 17};

TlsFeatureConfig extended_config() {
  TlsFeatureConfig extended;
  extended.extended_stats = true;
  return extended;
}

// Plain stats over custom interval ends: the temporal columns move while
// the order statistics keep the default config's selection path.
TlsFeatureConfig custom_intervals_config() {
  TlsFeatureConfig custom;
  custom.interval_ends_s = {10.0, 45.0, 90.0, 300.0};
  return custom;
}

TEST(TlsFeatureAccumulator, EmptyLogIsAllZeros) {
  for (const auto& config : {TlsFeatureConfig{}, extended_config(),
                             custom_intervals_config()}) {
    TlsFeatureAccumulator acc(config);
    const auto snap = acc.snapshot();
    EXPECT_EQ(snap.size(), tls_feature_count(config));
    for (double v : snap) EXPECT_EQ(v, 0.0);
    expect_bit_identical(snap, extract_tls_features({}, config));
  }
}

TEST(TlsFeatureAccumulator, FeatureCountMatchesNames) {
  TlsFeatureConfig extended;
  extended.extended_stats = true;
  TlsFeatureConfig custom;
  custom.interval_ends_s = {5.0, 20.0};
  for (const auto& config :
       {TlsFeatureConfig{}, extended, custom}) {
    EXPECT_EQ(tls_feature_count(config), tls_feature_names(config).size());
    EXPECT_EQ(TlsFeatureAccumulator(config).feature_count(),
              tls_feature_names(config).size());
  }
}

TEST(TlsFeatureAccumulator, BitIdenticalToBatchOnRandomLogs) {
  Rng rng(1234);
  for (std::size_t trial = 0; trial < 50; ++trial) {
    const auto log =
        random_log(rng, 1 + static_cast<std::size_t>(rng.uniform_int(0, 99)));
    for (const auto& config : {TlsFeatureConfig{}, extended_config()}) {
      for (const std::size_t k : kCadences) {
        expect_cadence_matches_batch(log, k, config);
      }
    }
  }
}

TEST(TlsFeatureAccumulator, ObservationOrderIsIrrelevant) {
  Rng rng(99);
  for (std::size_t trial = 0; trial < 30; ++trial) {
    auto log =
        random_log(rng, 2 + static_cast<std::size_t>(rng.uniform_int(0, 80)));
    for (const auto& config : {TlsFeatureConfig{}, extended_config()}) {
      const auto batch = extract_tls_features(log, config);
      // Several shuffles per log, including fully reversed (worst case
      // for the interval-window rebuild: first_start decreases every
      // step), each snapshotted at every cadence along the way.
      auto permuted = log;
      std::reverse(permuted.begin(), permuted.end());
      for (int s = 0; s < 4; ++s) {
        if (s > 0) shuffle_log(permuted, rng);
        for (const std::size_t k : kCadences) {
          expect_bit_identical(
              expect_cadence_matches_batch(permuted, k, config), batch);
        }
      }
    }
  }
}

TEST(TlsFeatureAccumulator, SelectedOrderStatisticsMatchSortedSummary) {
  // The default config reads each metric's min/median/max through
  // OrderedSample::min_med_max (merge for short tails, in-place selection
  // for long ones); extended_stats reads them from summarize_sorted over
  // sorted(). The batch extractor shares the first path, so the extended
  // columns are the independent reference here: both configs, fed the
  // same records and queried at the same cadence, must agree bit for bit.
  Rng rng(2718);
  const TlsFeatureConfig plain;
  const TlsFeatureConfig extended = extended_config();
  const std::size_t metrics = 6;
  for (const std::size_t n : {1, 2, 16, 17, 32, 33, 100, 600}) {
    auto log = random_log(rng, n);
    for (int order = 0; order < 2; ++order) {
      if (order == 1) shuffle_log(log, rng);  // out-of-order starts too
      for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                  std::size_t{17}, n}) {
        TlsFeatureAccumulator a(plain);
        TlsFeatureAccumulator b(extended);
        for (std::size_t i = 0; i < n; ++i) {
          a.observe(log[i]);
          b.observe(log[i]);
          if ((i + 1) % k != 0 && i + 1 != n) continue;
          const auto got = a.snapshot();
          const auto ref = b.snapshot();
          for (std::size_t m = 0; m < metrics; ++m) {
            for (std::size_t j = 0; j < 3; ++j) {
              ASSERT_EQ(got[4 + 3 * m + j], ref[4 + 5 * m + j])
                  << "n " << n << " order " << order << " cadence " << k
                  << " prefix " << i + 1 << " metric " << m << " stat " << j;
            }
          }
        }
      }
    }
  }
}

TEST(TlsFeatureAccumulator, ExtendedStatsAndCustomIntervalsMatchBatch) {
  TlsFeatureConfig custom_extended = extended_config();
  custom_extended.interval_ends_s = {2.0, 7.5, 30.0, 240.0};
  Rng rng(4321);
  // Logs of up to 400 transactions, shuffled before the fold: long
  // sessions push the temporal windows past 300 s and the samples past
  // every merge/selection threshold.
  for (const auto& config :
       {extended_config(), custom_extended, custom_intervals_config()}) {
    for (std::size_t trial = 0; trial < 20; ++trial) {
      auto log = random_log(
          rng, 1 + static_cast<std::size_t>(rng.uniform_int(0, 399)));
      const auto batch = extract_tls_features(log, config);
      shuffle_log(log, rng);
      expect_bit_identical(accumulate(log, config), batch);
    }
  }
}

TEST(TlsFeatureAccumulator, ResetReusesCleanly) {
  Rng rng(31);
  TlsFeatureAccumulator acc;
  std::vector<double> row(acc.feature_count());
  for (std::size_t trial = 0; trial < 10; ++trial) {
    const auto log =
        random_log(rng, 1 + static_cast<std::size_t>(rng.uniform_int(0, 40)));
    acc.reset();
    for (const auto& t : log) acc.observe(t);
    acc.snapshot_into(row);
    expect_bit_identical(row, extract_tls_features(log));
    EXPECT_EQ(acc.transactions(), log.size());
  }
  acc.reset();
  EXPECT_EQ(acc.transactions(), 0u);
  acc.snapshot_into(row);
  for (double v : row) EXPECT_EQ(v, 0.0);
}

TEST(TlsFeatureAccumulator, NumericObserveMatchesTransactionObserve) {
  Rng rng(55);
  const auto log = random_log(rng, 30);
  TlsFeatureAccumulator a, b;
  for (const auto& t : log) {
    a.observe(t);
    b.observe(t.start_s, t.end_s, t.ul_bytes, t.dl_bytes);
  }
  expect_bit_identical(a.snapshot(), b.snapshot());
}

TEST(TlsFeatureAccumulator, ContractViolations) {
  TlsFeatureConfig bad;
  bad.interval_ends_s = {30.0, -1.0};
  EXPECT_THROW(TlsFeatureAccumulator{bad}, droppkt::ContractViolation);

  TlsFeatureAccumulator acc;
  trace::TlsTransaction backwards;
  backwards.start_s = 5.0;
  backwards.end_s = 4.0;
  EXPECT_THROW(acc.observe(backwards), droppkt::ContractViolation);

  std::vector<double> wrong(acc.feature_count() + 1);
  EXPECT_THROW(acc.snapshot_into(wrong), droppkt::ContractViolation);
}

}  // namespace
}  // namespace droppkt::core
