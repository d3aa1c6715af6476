#include "core/feature_accumulator.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/stats.hpp"

namespace droppkt::core {

TlsFeatureAccumulator::TlsFeatureAccumulator(TlsFeatureConfig config)
    : config_(std::move(config)) {
  for (double end : config_.interval_ends_s) {
    DROPPKT_EXPECT(end > 0.0, "TlsFeatureConfig: interval ends must be > 0");
  }
  n_features_ = tls_feature_count(config_);
  cum_dl_.resize(config_.interval_ends_s.size());
  cum_ul_.resize(config_.interval_ends_s.size());

  // Sessions usually hold tens of transactions; pre-sizing to that scale
  // turns the growth-realloc churn of a fresh accumulator (the batch
  // wrapper builds one per call) into a handful of fixed allocations.
  constexpr std::size_t kExpectedTxns = 32;
  txns_.reserve(kExpectedTxns);
  for (util::OrderedSample* s : {&dl_, &ul_, &dur_, &tdr_, &d2u_, &starts_,
                                 &iat_}) {
    s->reserve(kExpectedTxns);
  }
}

void TlsFeatureAccumulator::fold_intervals(const Txn& t) {
  // A transaction contributes bytes proportional to its overlap with
  // [first_start, first_start + end). Two exactness-preserving shortcuts:
  // zero-overlap terms are skipped (an exact 0 never moves an ExactSum's
  // correctly-rounded value), and full coverage adds the raw bytes (there
  // share == 1.0 exactly, and bytes * 1.0 is the same double as bytes).
  const double span_raw = t.end_s - t.start_s;
  const double span = std::max(1e-3, span_raw);
  for (std::size_t i = 0; i < config_.interval_ends_s.size(); ++i) {
    const double window_end = first_start_ + config_.interval_ends_s[i];
    if (t.start_s >= window_end) continue;  // overlap <= 0: zero share
    if (t.end_s <= window_end && span_raw >= 1e-3) {
      cum_dl_[i].add(t.dl_bytes);
      cum_ul_[i].add(t.ul_bytes);
      continue;
    }
    const double overlap =
        std::max(0.0, std::min(t.end_s, window_end) - t.start_s);
    const double share = std::min(1.0, overlap / span);
    cum_dl_[i].add(t.dl_bytes * share);
    cum_ul_[i].add(t.ul_bytes * share);
  }
}

void TlsFeatureAccumulator::rebuild_intervals() {
  // A transaction arrived with an earlier start than anything seen, so
  // every interval window [first_start, first_start + end) moved: re-fold
  // all contributions. Rare in practice (logs are near session-relative,
  // so the first observation usually pins first_start) and exact in any
  // case — ExactSum makes the re-fold order-irrelevant.
  for (auto& s : cum_dl_) s.clear();
  for (auto& s : cum_ul_) s.clear();
  for (const Txn& t : txns_) fold_intervals(t);
}

void TlsFeatureAccumulator::observe(double start_s, double end_s,
                                    double ul_bytes, double dl_bytes) {
  DROPPKT_EXPECT(end_s >= start_s,
                 "TlsFeatureAccumulator: transaction end precedes start");
  const Txn t{start_s, end_s, ul_bytes, dl_bytes};
  const bool first = txns_.empty();
  txns_.push_back(t);

  total_dl_.add(t.dl_bytes);
  total_ul_.add(t.ul_bytes);
  dl_.insert(t.dl_bytes);
  ul_.insert(t.ul_bytes);
  const double dur = t.end_s - t.start_s;
  dur_.insert(dur);
  const double d = std::max(1e-3, dur);
  tdr_.insert(t.dl_bytes * 8.0 / 1000.0 / d);
  d2u_.insert(t.ul_bytes > 0.0 ? t.dl_bytes / t.ul_bytes : 0.0);

  // Inter-arrival gaps: inserting a start into the sorted sequence splits
  // one adjacent gap into two (or extends an end). The resulting multiset
  // equals the adjacent differences of the final sorted starts, which is
  // what the batch extractor computes.
  const auto sp = starts_.sorted();
  if (!sp.empty()) {
    const auto pos = static_cast<std::size_t>(
        std::upper_bound(sp.begin(), sp.end(), t.start_s) - sp.begin());
    if (pos == 0) {
      iat_.insert(sp.front() - t.start_s);
    } else if (pos == sp.size()) {
      iat_.insert(t.start_s - sp.back());
    } else {
      iat_.erase_one(sp[pos] - sp[pos - 1]);
      iat_.insert(t.start_s - sp[pos - 1]);
      iat_.insert(sp[pos] - t.start_s);
    }
  }
  starts_.insert(t.start_s);

  if (first) {
    first_start_ = t.start_s;
    last_end_ = t.end_s;
    fold_intervals(t);
    return;
  }
  last_end_ = std::max(last_end_, t.end_s);
  if (t.start_s < first_start_) {
    first_start_ = t.start_s;
    rebuild_intervals();
  } else {
    fold_intervals(t);
  }
}

void TlsFeatureAccumulator::reset() {
  txns_.clear();
  first_start_ = 0.0;
  last_end_ = 0.0;
  total_dl_.clear();
  total_ul_.clear();
  dl_.clear();
  ul_.clear();
  dur_.clear();
  tdr_.clear();
  d2u_.clear();
  starts_.clear();
  iat_.clear();
  for (auto& s : cum_dl_) s.clear();
  for (auto& s : cum_ul_) s.clear();
}

void TlsFeatureAccumulator::snapshot_into(std::span<double> out) const {
  DROPPKT_EXPECT(out.size() == n_features_,
                 "TlsFeatureAccumulator::snapshot_into: bad output size");
  if (txns_.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const double ses_dur = std::max(1e-3, last_end_ - first_start_);
  std::size_t f = 0;
  out[f++] = total_dl_.value() * 8.0 / 1000.0 / ses_dur;  // SDR_DL (kbps)
  out[f++] = total_ul_.value() * 8.0 / 1000.0 / ses_dur;  // SDR_UL (kbps)
  out[f++] = ses_dur;                                     // SES_DUR (s)
  out[f++] = static_cast<double>(txns_.size()) / ses_dur;  // TRANS_PER_SEC

  for (const util::OrderedSample* metric :
       {&dl_, &ul_, &dur_, &tdr_, &d2u_, &iat_}) {
    if (config_.extended_stats) {
      // summarize_sorted fixes the fold order of mean and stddev, which
      // the batch extractor's rounding depends on.
      const auto s = util::summarize_sorted(metric->sorted());
      out[f++] = s.min;
      out[f++] = s.median;
      out[f++] = s.max;
      out[f++] = s.mean;
      out[f++] = s.stddev;
      continue;
    }
    // The values summarize_sorted would report, without its two O(n)
    // passes for moments this config drops, and by selection rather than
    // a sort when many values arrived since the last query. An empty
    // sample (IAT of a single transaction) reads as zeros.
    const auto s = metric->min_med_max();
    out[f++] = s.min;
    out[f++] = s.median;
    out[f++] = s.max;
  }

  for (std::size_t i = 0; i < cum_dl_.size(); ++i) {
    out[f++] = cum_dl_[i].value();
    out[f++] = cum_ul_[i].value();
  }
  DROPPKT_ENSURE(f == n_features_,
                 "TlsFeatureAccumulator: feature count drift");
}

std::vector<double> TlsFeatureAccumulator::snapshot() const {
  std::vector<double> out(n_features_);
  snapshot_into(out);
  return out;
}

}  // namespace droppkt::core
