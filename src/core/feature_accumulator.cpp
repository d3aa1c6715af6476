#include "core/feature_accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
  s_cum_dl_.resize(config_.interval_ends_s.size());
  s_cum_ul_.resize(config_.interval_ends_s.size());

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

void TlsFeatureAccumulator::fold_intervals(const Txn& t,
                                           std::vector<util::ExactSum>& dl,
                                           std::vector<util::ExactSum>& ul) const {
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
      dl[i].add(t.dl_bytes);
      ul[i].add(t.ul_bytes);
      continue;
    }
    const double overlap =
        std::max(0.0, std::min(t.end_s, window_end) - t.start_s);
    const double share = std::min(1.0, overlap / span);
    dl[i].add(t.dl_bytes * share);
    ul[i].add(t.ul_bytes * share);
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
  for (const Txn& t : txns_) fold_intervals(t, cum_dl_, cum_ul_);
}

void TlsFeatureAccumulator::observe(double start_s, double end_s,
                                    double ul_bytes, double dl_bytes) {
  DROPPKT_EXPECT(end_s >= start_s,
                 "TlsFeatureAccumulator: transaction end precedes start");
  const Txn t{start_s, end_s, ul_bytes, dl_bytes};
  const bool first = txns_.empty();
  txns_.push_back(t);
  s_by_start_valid_ = false;

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
    fold_intervals(t, cum_dl_, cum_ul_);
    return;
  }
  last_end_ = std::max(last_end_, t.end_s);
  if (t.start_s < first_start_) {
    first_start_ = t.start_s;
    rebuild_intervals();
  } else {
    fold_intervals(t, cum_dl_, cum_ul_);
  }
}

void TlsFeatureAccumulator::reset() {
  txns_.clear();
  s_by_start_.clear();
  s_by_start_valid_ = false;
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

void TlsFeatureAccumulator::snapshot_at(double horizon_s,
                                        std::span<double> out) {
  DROPPKT_EXPECT(horizon_s > 0.0,
                 "TlsFeatureAccumulator::snapshot_at: horizon must be > 0");
  DROPPKT_EXPECT(out.size() == n_features_,
                 "TlsFeatureAccumulator::snapshot_at: bad output size");
  if (txns_.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const double cutoff = first_start_ + horizon_s;
  // Horizon past the session's end: nothing is dropped (every start <=
  // last_end < cutoff) or clipped (every end <= last_end < cutoff), so the
  // truncated view is the full log — reuse the O(features) live snapshot
  // instead of re-folding the scratch pass below.
  if (cutoff > last_end_) {
    snapshot_into(out);
    return;
  }

  // The sweep walks the start-sorted copy once across an ascending run of
  // cutoffs (the early-detection access pattern). A transaction CLOSED at
  // the current cutoff (end <= cutoff) contributes the same exact values
  // to every later horizon — its clipped form equals its raw form — so it
  // folds into the persistent s_* scratch exactly once, in fold_closed().
  // Only the few transactions still open at the cutoff get clipped per
  // call, into o_* copies. observe() or a smaller horizon resets the run.
  if (!s_by_start_valid_) {
    s_by_start_ = txns_;
    std::sort(s_by_start_.begin(), s_by_start_.end(),
              [](const Txn& a, const Txn& b) { return a.start_s < b.start_s; });
    s_by_start_valid_ = true;
    reset_sweep();
  }
  if (cutoff < sweep_cutoff_) reset_sweep();
  sweep_cutoff_ = cutoff;

  // Admit transactions that started before the new cutoff. Starts (and
  // hence IATs) are cutoff-independent for any started transaction —
  // clipping never moves start_s — so they append to the persistent
  // ascending arrays directly.
  while (sweep_pos_ < s_by_start_.size() &&
         s_by_start_[sweep_pos_].start_s < cutoff) {
    const Txn& t = s_by_start_[sweep_pos_];
    if (!s_starts_.empty()) s_iat_.push_back(t.start_s - s_starts_.back());
    s_starts_.push_back(t.start_s);
    if (t.end_s <= cutoff) {
      fold_closed(t);
    } else {
      sweep_open_.push_back(static_cast<std::uint32_t>(sweep_pos_));
    }
    ++sweep_pos_;
  }
  // Previously-open transactions that the advancing cutoff has now passed
  // fold over to the closed side.
  for (std::size_t i = 0; i < sweep_open_.size();) {
    const Txn& t = s_by_start_[sweep_open_[i]];
    if (t.end_s <= cutoff) {
      fold_closed(t);
      sweep_open_[i] = sweep_open_.back();
      sweep_open_.pop_back();
    } else {
      ++i;
    }
  }
  DROPPKT_ENSURE(sweep_pos_ > 0,
                 "TlsFeatureAccumulator::snapshot_at: empty horizon view");
  DROPPKT_ASSERT(std::is_sorted(s_starts_.begin(), s_starts_.end()),
                 "snapshot_at: starts not sorted");

  // Clip the open transactions to this cutoff (truncate_tls_log's rule).
  o_clipped_.clear();
  for (std::uint32_t idx : sweep_open_) {
    const Txn& t = s_by_start_[idx];
    const double span = std::max(1e-3, t.end_s - t.start_s);
    const double share = (cutoff - t.start_s) / span;
    o_clipped_.push_back(
        {t.start_s, cutoff, t.ul_bytes * share, t.dl_bytes * share});
  }
  // Every clipped transaction ends exactly at the cutoff, so the view's
  // last end is the cutoff itself whenever anything is open.
  const double last =
      sweep_open_.empty() ? sweep_last_closed_end_ : cutoff;

  // Totals and cumulative-interval sums: copy the closed-side exact sums
  // (partials only — no heap for realistic sessions) and extend with the
  // clipped contributions. ExactSum is order-insensitive, so closed-then-
  // open fold order matches the batch extractor bit for bit.
  util::ExactSum tot_dl = s_total_dl_;
  util::ExactSum tot_ul = s_total_ul_;
  for (const Txn& c : o_clipped_) {
    tot_dl.add(c.dl_bytes);
    tot_ul.add(c.ul_bytes);
  }
  o_cum_dl_ = s_cum_dl_;
  o_cum_ul_ = s_cum_ul_;
  for (const Txn& c : o_clipped_) fold_intervals(c, o_cum_dl_, o_cum_ul_);

  const double ses_dur = std::max(1e-3, last - first_start_);
  std::size_t f = 0;
  out[f++] = tot_dl.value() * 8.0 / 1000.0 / ses_dur;
  out[f++] = tot_ul.value() * 8.0 / 1000.0 / ses_dur;
  out[f++] = ses_dur;
  out[f++] = static_cast<double>(s_starts_.size()) / ses_dur;

  for (std::size_t m = 0; m < 6; ++m) {
    // Summaries reorder their input (selection / sort), so they operate on
    // a per-call copy: closed-side values plus the open transactions'
    // clipped values, computed with the same expressions as fold_closed.
    if (m < 5) {
      s_summary_.assign(s_metric_[m].begin(), s_metric_[m].end());
      for (const Txn& c : o_clipped_) {
        switch (m) {
          case 0: s_summary_.push_back(c.dl_bytes); break;
          case 1: s_summary_.push_back(c.ul_bytes); break;
          case 2: s_summary_.push_back(c.end_s - c.start_s); break;
          case 3:
            s_summary_.push_back(c.dl_bytes * 8.0 / 1000.0 /
                                 std::max(1e-3, c.end_s - c.start_s));
            break;
          default:
            s_summary_.push_back(
                c.ul_bytes > 0.0 ? c.dl_bytes / c.ul_bytes : 0.0);
            break;
        }
      }
    } else {
      s_summary_.assign(s_iat_.begin(), s_iat_.end());
    }
    if (!config_.extended_stats) {
      // Per-horizon hot path: selection instead of a full sort. An empty
      // sample (IAT of a single-transaction view) summarizes to zeros,
      // like summarize_sorted.
      const auto s = util::min_med_max(s_summary_);
      out[f++] = s.min;
      out[f++] = s.median;
      out[f++] = s.max;
      continue;
    }
    // mean/stddev fold in sorted order inside summarize_sorted; keep the
    // sort so the fold order — hence every rounding — matches the batch
    // extractor's.
    std::sort(s_summary_.begin(), s_summary_.end());
    const auto s = util::summarize_sorted(s_summary_);
    out[f++] = s.min;
    out[f++] = s.median;
    out[f++] = s.max;
    out[f++] = s.mean;
    out[f++] = s.stddev;
  }

  for (std::size_t i = 0; i < o_cum_dl_.size(); ++i) {
    out[f++] = o_cum_dl_[i].value();
    out[f++] = o_cum_ul_[i].value();
  }
  DROPPKT_ENSURE(f == n_features_,
                 "TlsFeatureAccumulator: feature count drift");
}

void TlsFeatureAccumulator::reset_sweep() {
  sweep_cutoff_ = -std::numeric_limits<double>::infinity();
  sweep_pos_ = 0;
  sweep_open_.clear();
  // Overwritten by the first fold_closed; when the open set is empty at
  // least one transaction is closed (sweep_pos_ > 0), so this sentinel
  // never reaches the feature math.
  sweep_last_closed_end_ = -std::numeric_limits<double>::infinity();
  for (auto& v : s_metric_) v.clear();
  s_starts_.clear();
  s_iat_.clear();
  s_total_dl_.clear();
  s_total_ul_.clear();
  for (auto& s : s_cum_dl_) s.clear();
  for (auto& s : s_cum_ul_) s.clear();
}

void TlsFeatureAccumulator::fold_closed(const Txn& t) {
  sweep_last_closed_end_ = std::max(sweep_last_closed_end_, t.end_s);
  s_total_dl_.add(t.dl_bytes);
  s_total_ul_.add(t.ul_bytes);
  s_metric_[0].push_back(t.dl_bytes);
  s_metric_[1].push_back(t.ul_bytes);
  const double dur = t.end_s - t.start_s;
  s_metric_[2].push_back(dur);
  s_metric_[3].push_back(t.dl_bytes * 8.0 / 1000.0 / std::max(1e-3, dur));
  s_metric_[4].push_back(t.ul_bytes > 0.0 ? t.dl_bytes / t.ul_bytes : 0.0);
  fold_intervals(t, s_cum_dl_, s_cum_ul_);
}

std::vector<double> TlsFeatureAccumulator::snapshot() const {
  std::vector<double> out(n_features_);
  snapshot_into(out);
  return out;
}

}  // namespace droppkt::core
