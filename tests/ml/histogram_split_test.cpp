// Histogram split search: quantized binning invariants at the production
// bin cap, thread-count determinism of training, fit_on_pool equivalence,
// importance bookkeeping and the stats-only fit timing.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace droppkt::ml {
namespace {

Dataset make_problem(std::size_t n, std::uint64_t seed,
                     std::size_t noise_features = 3) {
  std::vector<std::string> names{"x0", "x1"};
  for (std::size_t f = 0; f < noise_features; ++f) {
    std::string name = "noise";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset d(std::move(names), 3);
  util::Rng rng(seed);
  std::vector<double> row(2 + noise_features);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, 2));
    row[0] = label + rng.normal(0.0, 0.4);
    row[1] = -label + rng.normal(0.0, 0.4);
    for (std::size_t f = 0; f < noise_features; ++f) {
      row[2 + f] = rng.normal();
    }
    d.add_row(std::span<const double>(row), label);
  }
  return d;
}

// The compiled text of a fitted forest: every split feature, threshold
// and leaf probability at max_digits10, in pre-order child layout.
std::string compiled_text(const RandomForest& rf) {
  std::stringstream ss;
  rf.compiled().save(ss);
  return ss.str();
}

std::string fit_and_save(const Dataset& d, const RandomForestParams& p) {
  RandomForest rf(p);
  rf.fit(d);
  return compiled_text(rf);
}

TEST(ColumnBins, RespectsBinCapAndMonotoneThresholds) {
  // Every feature is continuous (1000 distinct values), so each one must
  // fill the cap exactly.
  const auto d = make_problem(1000, 11);
  const ColumnMatrix columns(d);
  for (std::size_t f = 0; f < columns.num_features(); ++f) {
    const std::size_t nb = columns.num_bins(f);
    ASSERT_EQ(nb, ColumnMatrix::kMaxBins);
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      EXPECT_LT(columns.bin_threshold(f, b), columns.bin_threshold(f, b + 1));
    }
    EXPECT_TRUE(std::isinf(columns.bin_threshold(f, nb - 1)));
  }
}

TEST(ColumnBins, BinRealizesThresholdOrderExactly) {
  // The defining property of the mapping: for every row and every bin
  // boundary, value <= threshold iff bin <= b. Split decisions made on
  // bins during training therefore agree with the raw-value thresholds
  // the tree stores for prediction.
  // 600 distinct values per feature, more than the cap: bins hold several
  // values each, and the invariant must hold inside a bin too.
  const auto d = make_problem(600, 12);
  const ColumnMatrix columns(d);
  for (std::size_t f = 0; f < columns.num_features(); ++f) {
    const auto bins = columns.bin_column(f);
    const std::size_t nb = columns.num_bins(f);
    ASSERT_EQ(nb, ColumnMatrix::kMaxBins);
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      const double thr = columns.bin_threshold(f, b);
      for (std::size_t r = 0; r < d.size(); ++r) {
        EXPECT_EQ(d.row(r)[f] <= thr, bins[r] <= b)
            << "feature " << f << " row " << r << " boundary " << b;
      }
    }
  }
}

TEST(ColumnBins, FewDistinctValuesGetOneBinEach) {
  Dataset d({"f0"}, 2);
  for (int i = 0; i < 100; ++i) {
    d.add_row({static_cast<double>(i % 4)}, i % 2);
  }
  const ColumnMatrix columns(d);
  EXPECT_EQ(columns.num_bins(0), 4u);
}

TEST(HistogramSplit, BitIdenticalForAnyThreadCount) {
  const auto d = make_problem(400, 5);
  RandomForestParams p;
  p.num_trees = 24;
  p.seed = 1303;
  p.num_threads = 1;
  const std::string m1 = fit_and_save(d, p);
  p.num_threads = 2;
  const std::string m2 = fit_and_save(d, p);
  p.num_threads = 8;
  const std::string m8 = fit_and_save(d, p);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m8);
}

TEST(HistogramSplit, FitOnPoolMatchesFit) {
  const auto d = make_problem(300, 9);
  RandomForestParams p;
  p.num_trees = 12;
  p.seed = 77;
  p.num_threads = 3;
  const std::string via_fit = fit_and_save(d, p);

  RandomForest rf(p);
  util::ThreadPool pool(3);
  rf.fit_on_pool(d, pool);
  EXPECT_EQ(via_fit, compiled_text(rf));
}

TEST(HistogramSplit, OobAndImportancesPopulated) {
  const auto d = make_problem(300, 41);
  RandomForestParams p;
  p.num_trees = 16;
  p.seed = 3;
  p.num_threads = 1;
  RandomForest rf(p);
  rf.fit(d);
  const auto imp = rf.feature_importances();
  ASSERT_EQ(imp.size(), d.num_features());
  // The informative features must dominate the noise columns.
  EXPECT_GT(imp[0] + imp[1], 0.5);
}

TEST(HistogramSplit, CollectTimingPopulatesBreakdown) {
  const auto d = make_problem(250, 51);
  RandomForestParams p;
  p.num_trees = 8;
  p.seed = 13;
  p.collect_timing = true;
  p.num_threads = 1;
  RandomForest rf(p);
  EXPECT_EQ(rf.last_fit_timing(), nullptr);
  rf.fit(d);
  const auto* timing = rf.last_fit_timing();
  ASSERT_NE(timing, nullptr);
  EXPECT_GE(timing->bootstrap_draw_s, 0.0);
  EXPECT_GE(timing->column_build_s, 0.0);
  EXPECT_GT(timing->trees_wall_s, 0.0);
  ASSERT_EQ(timing->tree_seconds.size(), p.num_trees);
  for (const double s : timing->tree_seconds) EXPECT_GE(s, 0.0);
}

TEST(HistogramSplit, TimingCollectionDoesNotChangeModel) {
  const auto d = make_problem(250, 52);
  RandomForestParams p;
  p.num_trees = 8;
  p.seed = 17;
  p.num_threads = 2;
  const std::string plain = fit_and_save(d, p);
  p.collect_timing = true;
  EXPECT_EQ(plain, fit_and_save(d, p));
}

}  // namespace
}  // namespace droppkt::ml
