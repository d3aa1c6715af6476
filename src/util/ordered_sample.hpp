// Multiset of doubles for exact incremental order statistics.
//
// The feature accumulator needs exact (not sketched) min/median/max per
// transaction metric while records arrive one at a time, in any order.
// Every order statistic is a function of the value *multiset*, so the
// container does not have to keep its storage sorted between insertions.
// The storage is a sorted prefix followed by an unsorted tail of the values
// inserted since the last query. insert() appends in O(1): an in-order
// value (chronological feeds usually send those) extends the prefix,
// anything else starts or grows the tail.
//
// Queries pay for the tail in one of two ways:
//   * A tail of at most kMergeTail values — a streaming monitor's
//     provisional estimates query every few records — is sorted in a stack
//     buffer and merged into the prefix from the back, so the query pays
//     for the new values instead of re-sorting the whole sample.
//   * A longer tail — a monitor's session verdict over records folded in
//     blocks since the last query, or the batch extractor's
//     observe-all-then-query-once pattern — is answered by min_med_max()
//     with in-place selection (util::min_med_max), O(n) instead of a sort.
//     Selection leaves the storage unsorted, so the whole sample becomes
//     the tail; a later sorted() or erase_one() sorts it once.
// Either way the answers are those of the sorted multiset, identical no
// matter the insertion order or query cadence.
//
// Queries reorganize mutable storage inside const methods: concurrent
// queries on one instance are not safe, matching the accumulator's
// one-writer-per-client use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/expect.hpp"
#include "util/stats.hpp"

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

  /// The sample, sorted ascending. Stable storage until the next mutation
  /// or min_med_max() query.
  std::span<const double> sorted() const {
    ensure_sorted();
    return values_;
  }

  /// min, median (percentile_sorted's interpolation) and max, zeros when
  /// empty — bit-identical to reading them off sorted(). A short tail is
  /// merged as sorted() would; a longer one is selected in place instead
  /// of sorted.
  MinMedMax min_med_max() const {
    if (values_.size() - sorted_len_ > kMergeTail) {
      sorted_len_ = 0;
      return util::min_med_max(values_);
    }
    ensure_sorted();
    if (values_.empty()) return {};
    return {values_.front(), percentile_sorted(values_, 50.0),
            values_.back()};
  }

 private:
  // Longest unsorted tail merged through the stack buffer; longer tails
  // take one full sort (sorted()) or a selection (min_med_max()).
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
