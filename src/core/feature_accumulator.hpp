// Incremental construction of the paper's 38-feature TLS representation.
//
// The batch extractor (extract_tls_features) needs the whole session log
// up front, so a per-record provisional estimate in the streaming monitor
// would cost O(n²) if every snapshot re-extracted. TlsFeatureAccumulator
// turns that into one pass: observe() folds a transaction into running
// state (sorted per-metric samples for exact order statistics,
// exactly-rounded byte totals and cumulative-interval counters), and
// snapshot_into() materializes the feature vector with zero allocation.
//
// Equivalence contract (asserted by the TlsFeatureAccumulator.* tests):
// snapshot_into() is bit-identical to extract_tls_features over the same
// transaction multiset, for ANY observation order — the batch extractor
// is itself a thin wrapper over this class, and all order-sensitive
// reductions inside use util::ExactSum / util::OrderedSample, which are
// functions of the multiset alone. There is one feature formula: early
// detection truncates the log (truncate_tls_log) and then extracts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/tls_features.hpp"
#include "trace/records.hpp"
#include "util/exact_sum.hpp"
#include "util/ordered_sample.hpp"

namespace droppkt::core {

class TlsFeatureAccumulator {
 public:
  explicit TlsFeatureAccumulator(TlsFeatureConfig config = {});

  /// Fold one transaction into the running state. Order-insensitive:
  /// feeding any permutation of a log yields identical snapshots.
  void observe(const trace::TlsTransaction& txn) {
    observe(txn.start_s, txn.end_s, txn.ul_bytes, txn.dl_bytes);
  }

  /// Same fold from the numeric fields alone — lets flow records (or any
  /// transaction-shaped tuple) feed the extractor without materializing a
  /// trace::TlsTransaction.
  void observe(double start_s, double end_s, double ul_bytes, double dl_bytes);

  /// Drop all observed transactions, keep the configuration (and the
  /// allocated capacity — a monitor reuses one accumulator per client
  /// across sessions without reallocating).
  void reset();

  std::size_t transactions() const { return txns_.size(); }
  std::size_t feature_count() const { return n_features_; }
  const TlsFeatureConfig& config() const { return config_; }

  /// Write the feature vector over everything observed so far into `out`
  /// (size must be feature_count()). Zero allocation; an empty
  /// accumulator writes all zeros, like the batch extractor.
  void snapshot_into(std::span<double> out) const;

  /// Convenience: snapshot into a fresh vector (allocating; the batch
  /// wrapper and tests use this, hot paths use snapshot_into).
  std::vector<double> snapshot() const;

 private:
  struct Txn {  // what feature math needs; drops sni/http_count
    double start_s, end_s, ul_bytes, dl_bytes;
  };

  void fold_intervals(const Txn& t);
  void rebuild_intervals();

  TlsFeatureConfig config_;
  std::size_t n_features_ = 0;

  std::vector<Txn> txns_;  // observation order (interval rebuilds)
  double first_start_ = 0.0;
  double last_end_ = 0.0;
  util::ExactSum total_dl_, total_ul_;
  util::OrderedSample dl_, ul_, dur_, tdr_, d2u_;
  util::OrderedSample starts_;  // sorted arrival times
  util::OrderedSample iat_;     // gaps between adjacent sorted starts
  std::vector<util::ExactSum> cum_dl_, cum_ul_;  // one per interval end
};

}  // namespace droppkt::core
