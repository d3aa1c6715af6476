// Summary statistics used throughout feature extraction and reporting.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace droppkt::util {

/// Five-number-style summary of a sample. Computed once, queried many times.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;  // population standard deviation
};

/// Compute a Summary over a sample. An empty sample yields an all-zero
/// Summary with count == 0 (features over empty transaction lists are 0).
Summary summarize(std::span<const double> values);

/// `summarize` over an already-sorted (ascending) sample: no copy, no
/// sort, no allocation. `summarize` delegates here after sorting a copy,
/// so for equal multisets both return bit-identical Summaries — the
/// incremental feature accumulator relies on this to match batch
/// extraction exactly. Sortedness is the caller's contract (checked in
/// debug builds only).
Summary summarize_sorted(std::span<const double> sorted);

/// Minimum, median (percentile_sorted's interpolation) and maximum of a
/// sample.
struct MinMedMax {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

/// min / median / max of an unsorted sample without a full sort,
/// bit-identical to summarize_sorted over the sorted sample: the same
/// order statistics are selected (nth_element partitioning) and the
/// median interpolation repeats percentile_sorted's arithmetic on the
/// same operands. Reorders `values` in place, allocates nothing; samples
/// of 32 or fewer values are simply sorted (cheaper than selection at
/// that size, and trivially identical). An empty sample yields zeros.
MinMedMax min_med_max(std::span<double> values);

/// Linear-interpolated percentile, p in [0, 100]. Empty input yields 0.
double percentile(std::span<const double> values, double p);

/// `percentile` over an already-sorted (ascending) sample; no allocation.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median (50th percentile).
double median(std::span<const double> values);

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> values);

/// Population standard deviation; 0 for fewer than 2 values.
double stddev(std::span<const double> values);

/// Pearson correlation of two equal-length samples; 0 when undefined.
double pearson(std::span<const double> x, std::span<const double> y);

/// Empirical CDF evaluated at sorted sample points.
/// Returns pairs (value, fraction <= value) with values sorted ascending.
std::vector<std::pair<double, double>> empirical_cdf(std::span<const double> values);

/// Streaming mean/variance accumulator (Welford).
class OnlineStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace droppkt::util
