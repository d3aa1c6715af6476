#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace droppkt::util {

Summary summarize(std::span<const double> values) {
  if (values.empty()) return {};
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return summarize_sorted(sorted);
}

Summary summarize_sorted(std::span<const double> sorted) {
  DROPPKT_ASSERT(std::is_sorted(sorted.begin(), sorted.end()),
                 "summarize_sorted: input must be sorted ascending");
  Summary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  s.median = percentile_sorted(sorted, 50.0);
  double ss = 0.0;
  for (double v : sorted) ss += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(ss / static_cast<double>(sorted.size()));
  return s;
}

MinMedMax min_med_max(std::span<double> values) {
  const std::size_t n = values.size();
  if (n <= 32) {
    if (n == 0) return {};
    std::sort(values.begin(), values.end());
    return {values.front(), percentile_sorted(values, 50.0), values.back()};
  }
  // percentile_sorted(v, 50): rank = 0.5 * (n - 1), lo = floor(rank).
  const double rank = 0.5 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double v_lo = *nth;  // sorted[lo]
  // n > 32 puts lo in [1, n-2]: both partitions are non-empty, so the
  // global min lives left of nth and sorted[lo+1] / the global max right.
  const double v_min = *std::min_element(values.begin(), nth);
  double v_hi = values[lo + 1];
  double v_max = v_hi;
  for (std::size_t i = lo + 2; i < n; ++i) {
    v_hi = std::min(v_hi, values[i]);
    v_max = std::max(v_max, values[i]);
  }
  return {v_min, v_lo + frac * (v_hi - v_lo), v_max};
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return percentile_sorted(values, p);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  DROPPKT_EXPECT(p >= 0.0 && p <= 100.0, "percentile: p must be in [0,100]");
  DROPPKT_ASSERT(std::is_sorted(sorted.begin(), sorted.end()),
                 "percentile_sorted: input must be sorted ascending");
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(values.size()));
}

double pearson(std::span<const double> x, std::span<const double> y) {
  DROPPKT_EXPECT(x.size() == y.size(), "pearson: samples must have equal length");
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<std::pair<double, double>> empirical_cdf(std::span<const double> values) {
  std::vector<std::pair<double, double>> cdf;
  if (values.empty()) return cdf;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  cdf.reserve(sorted.size());
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.emplace_back(sorted[i], static_cast<double>(i + 1) / n);
  }
  return cdf;
}

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace droppkt::util
