// Sorted multiset of doubles for incremental order statistics.
//
// The feature accumulator needs exact (not sketched) min/median/max per
// transaction metric while records arrive one at a time, in any order.
// Every order statistic is a function of the value *multiset*, so the
// container only has to present a sorted view when queried — it does not
// have to keep the storage sorted between insertions. The storage is a
// sorted prefix followed by an unsorted tail of the values inserted since
// the last query. insert() appends in O(1): an in-order value (chronological
// feeds usually send those) extends the prefix, anything else starts or
// grows the tail. A query sorts only the tail — at most kMergeTail values,
// copied into a stack buffer — and merges it into the prefix from the back,
// so a streaming monitor that queries every few records pays for the new
// values instead of re-sorting the whole sample. A tail longer than the
// buffer (the batch extractor's observe-all-then-query-once pattern) falls
// back to one full sort. Either way the view is the sorted multiset, so it
// is identical no matter the insertion order or query cadence.
//
// The merge runs inside const queries (mutable storage): concurrent
// queries on one instance are not safe, matching the accumulator's
// one-writer-per-client use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/expect.hpp"

namespace droppkt::util {

class OrderedSample {
 public:
  void insert(double x) {
    if (sorted_len_ == values_.size() &&
        (values_.empty() || values_.back() <= x)) {
      ++sorted_len_;
    }
    values_.push_back(x);
  }

  /// Remove one element equal to `x`, which must be present. Used when an
  /// incrementally-maintained derived multiset (e.g. inter-arrival gaps)
  /// replaces one element with two refined ones.
  void erase_one(double x) {
    ensure_sorted();
    const auto it = std::lower_bound(values_.begin(), values_.end(), x);
    DROPPKT_EXPECT(it != values_.end() && *it == x,
                   "OrderedSample::erase_one: value not present");
    values_.erase(it);
    sorted_len_ = values_.size();
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  void clear() {
    values_.clear();
    sorted_len_ = 0;
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  /// The sample, sorted ascending. Stable storage until the next mutation.
  std::span<const double> sorted() const {
    ensure_sorted();
    return values_;
  }

 private:
  // Longest unsorted tail merged through the stack buffer; longer tails
  // take one full sort.
  static constexpr std::size_t kMergeTail = 16;

  void ensure_sorted() const {
    const std::size_t n = values_.size();
    const std::size_t tail = n - sorted_len_;
    if (tail == 0) return;
    if (tail > kMergeTail) {
      std::sort(values_.begin(), values_.end());
      sorted_len_ = n;
      return;
    }
    double buf[kMergeTail];
    std::copy(values_.begin() + static_cast<std::ptrdiff_t>(sorted_len_),
              values_.end(), buf);
    std::sort(buf, buf + tail);
    // Merge from the back. k == i + j throughout, so the write cursor k
    // never lands on a prefix value that has not been moved yet.
    std::size_t i = sorted_len_;
    std::size_t j = tail;
    std::size_t k = n;
    while (j > 0) {
      if (i > 0 && values_[i - 1] > buf[j - 1]) {
        values_[--k] = values_[--i];
      } else {
        values_[--k] = buf[--j];
      }
    }
    sorted_len_ = n;
  }

  mutable std::vector<double> values_;
  // values_[0, sorted_len_) is sorted ascending; the rest is the tail.
  mutable std::size_t sorted_len_ = 0;
};

}  // namespace droppkt::util
