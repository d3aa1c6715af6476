// ExactSum promises the correctly-rounded sum of the term multiset, for
// any insertion order; OrderedSample promises the sorted multiset, for any
// insertion order. The feature accumulator's bit-identity contract rests
// on both, so they get direct coverage here — including the paths a
// realistic feed never exercises (inline-buffer overflow into the heap
// spill, interleaved erase_one/query/insert, erase after a selection).
#include "util/exact_sum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/expect.hpp"
#include "util/ordered_sample.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace droppkt::util {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ExactSum, EmptyIsZeroAndClearResets) {
  ExactSum s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.value(), 0.0);
  s.add(3.5);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.value(), 3.5);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSum, RecoversCancelledLowOrderBits) {
  // 1e16 swallows 1.0 in plain double arithmetic; the exact sum does not.
  ExactSum s;
  s.add(1e16);
  s.add(1.0);
  s.add(-1e16);
  EXPECT_EQ(s.value(), 1.0);
  // The classic fsum demo: .1 added ten times is exactly 1.0 when the
  // rounding happens once at the end.
  ExactSum t;
  for (int i = 0; i < 10; ++i) t.add(0.1);
  EXPECT_EQ(t.value(), 1.0);
}

TEST(ExactSum, ValueIsIndependentOfInsertionOrder) {
  Rng rng(2020);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> terms;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < n; ++i) {
      // Wild magnitude spread to force long partial lists.
      const double mag = std::pow(10.0, rng.uniform(-12.0, 12.0));
      terms.push_back((rng.uniform01() < 0.5 ? -1.0 : 1.0) * mag);
    }
    ExactSum forward;
    for (double x : terms) forward.add(x);
    std::vector<double> shuffled = terms;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<long>(i) - 1))]);
    }
    ExactSum permuted;
    for (double x : shuffled) permuted.add(x);
    EXPECT_TRUE(same_bits(forward.value(), permuted.value()))
        << "order-dependent sum at trial " << trial;
  }
}

TEST(ExactSum, SurvivesInlineBufferOverflow) {
  // Non-overlapping powers of two: every term becomes its own partial, so
  // enough of them must outgrow any fixed inline storage and spill. The
  // exact sum of 2^0 .. 2^-k for k < 53 is still one representable double.
  ExactSum s;
  double expected = 0.0;
  for (int k = 0; k <= 40; ++k) {
    s.add(std::pow(2.0, -k));
    expected += std::pow(2.0, -k);  // exact: mantissa holds all 41 bits
  }
  EXPECT_EQ(s.value(), expected);
  // Still usable (and exact) after the spill.
  s.add(-expected);
  EXPECT_EQ(s.value(), 0.0);
  s.clear();
  s.add(2.0);
  EXPECT_EQ(s.value(), 2.0);
}

TEST(OrderedSample, SortedViewMatchesStdSortForAnyOrder) {
  Rng rng(7);
  // Query after every k-th insert, the way a monitor snapshots every few
  // records: tails of up to 20 values land on both sides of the merge
  // buffer's length, and the final query catches a tail of any length.
  // Half the values come from an integer grid so duplicates straddle the
  // merge; shapes cycle through random, nearly ascending (the in-order
  // fast path with occasional stragglers) and descending.
  for (std::size_t k = 1; k <= 20; ++k) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 600));
      std::vector<double> inserted;
      OrderedSample sample;
      const auto expect_sorted_multiset = [&] {
        std::vector<double> want = inserted;
        std::sort(want.begin(), want.end());
        const auto view = sample.sorted();
        ASSERT_EQ(view.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(view[i], want[i])
              << "k " << k << " trial " << trial << " size " << want.size()
              << " index " << i;
        }
      };
      double level = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double v = rng.uniform01() < 0.5
                       ? static_cast<double>(rng.uniform_int(-5, 5))
                       : rng.uniform(-5.0, 5.0);
        if (trial % 3 == 1) {
          level += rng.uniform(0.0, 0.1);
          if (rng.uniform01() < 0.8) v = level;
        } else if (trial % 3 == 2) {
          v = -static_cast<double>(i);
        }
        sample.insert(v);
        inserted.push_back(v);
        if ((i + 1) % k == 0) {
          expect_sorted_multiset();
          if (HasFatalFailure()) return;
        }
      }
      expect_sorted_multiset();
    }
  }
}

TEST(OrderedSample, QueriesInterleaveWithInsertsAndErases) {
  OrderedSample s;
  s.insert(3.0);
  s.insert(1.0);                 // out of order: forces the lazy sort
  EXPECT_EQ(s.sorted().front(), 1.0);
  s.insert(2.0);                 // dirties again after a query
  EXPECT_EQ(s.sorted()[1], 2.0);
  s.erase_one(2.0);
  EXPECT_EQ(s.size(), 2u);
  s.insert(0.5);
  s.erase_one(3.0);              // erase must see the re-sorted view
  const auto view = s.sorted();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 0.5);
  EXPECT_EQ(view[1], 1.0);
  EXPECT_THROW(s.erase_one(9.0), droppkt::ContractViolation);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(OrderedSample, SelectionQueryKeepsTheSortedMultiset) {
  Rng rng(31);
  // Alternate min_med_max() queries, sorted() views and erase_one() at
  // every cadence: tails longer than the merge buffer take the selection
  // path, which leaves the storage unsorted, so the next sorted() or
  // erase_one() must still see the sorted multiset, and every query must
  // read what the sorted view reads (percentile_sorted's median).
  for (std::size_t k : {1, 4, 16, 17, 40, 200}) {
    std::vector<double> inserted;
    OrderedSample sample;
    for (std::size_t i = 0; i < 400; ++i) {
      const double v = rng.uniform01() < 0.5
                           ? static_cast<double>(rng.uniform_int(-5, 5))
                           : rng.uniform(-5.0, 5.0);
      sample.insert(v);
      inserted.push_back(v);
      if ((i + 1) % k != 0) continue;
      std::vector<double> want = inserted;
      std::sort(want.begin(), want.end());
      const MinMedMax got = sample.min_med_max();
      ASSERT_EQ(got.min, want.front()) << "k " << k << " size " << i + 1;
      ASSERT_EQ(got.median, percentile_sorted(want, 50.0))
          << "k " << k << " size " << i + 1;
      ASSERT_EQ(got.max, want.back()) << "k " << k << " size " << i + 1;
      if (i % 3 == 0) {
        // Erase right after the query: erase_one sorts what selection
        // left unsorted.
        const double gone = inserted[i / 2];
        sample.erase_one(gone);
        inserted.erase(std::find(inserted.begin(), inserted.end(), gone));
        want = inserted;
        std::sort(want.begin(), want.end());
      }
      const auto view = sample.sorted();
      ASSERT_TRUE(std::equal(view.begin(), view.end(), want.begin(),
                             want.end()))
          << "k " << k << " size " << i + 1;
    }
  }
  const OrderedSample empty;
  const MinMedMax zeros = empty.min_med_max();
  EXPECT_EQ(zeros.min, 0.0);
  EXPECT_EQ(zeros.median, 0.0);
  EXPECT_EQ(zeros.max, 0.0);
}

TEST(OrderedSample, DuplicateValuesKeepMultiplicity) {
  OrderedSample s;
  for (double v : {2.0, 1.0, 2.0, 2.0, 1.0}) s.insert(v);
  const auto view = s.sorted();
  ASSERT_EQ(view.size(), 5u);
  EXPECT_EQ(std::count(view.begin(), view.end(), 2.0), 3);
  s.erase_one(2.0);
  EXPECT_EQ(std::count(s.sorted().begin(), s.sorted().end(), 2.0), 2);
}

}  // namespace
}  // namespace droppkt::util
