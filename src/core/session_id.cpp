#include "core/session_id.hpp"

#include <set>
#include <string>

#include "util/expect.hpp"

namespace droppkt::core {

std::vector<bool> detect_session_starts(const trace::TlsLog& merged,
                                        const SessionIdParams& params) {
  DROPPKT_EXPECT(params.window_s > 0.0, "SessionIdParams: W must be > 0");
  DROPPKT_EXPECT(params.delta_min >= 0.0 && params.delta_min <= 1.0,
                 "SessionIdParams: delta_min must be in [0,1]");
  for (std::size_t i = 1; i < merged.size(); ++i) {
    DROPPKT_EXPECT(merged[i].start_s >= merged[i - 1].start_s,
                   "detect_session_starts: log must be sorted by start time");
  }

  std::vector<bool> is_start(merged.size(), false);
  if (merged.empty()) return is_start;

  std::set<std::string> session_servers;  // servers seen this session
  double last_start_s = -1e18;            // refractory anchor
  for (std::size_t i = 0; i < merged.size(); ++i) {
    bool starts_new = (i == 0);
    // Transactions inside the burst window of a just-detected start belong
    // to that session — without this, every member of the opening burst
    // would re-trigger detection.
    const bool in_refractory =
        merged[i].start_s - last_start_s <= params.window_s;
    if (!starts_new && !in_refractory) {
      // Succeeding transactions starting within W seconds of this one
      // (paper Section 4.2: N and δ are computed over that set).
      std::size_t n = 0;
      std::size_t fresh = 0;
      for (std::size_t j = i + 1; j < merged.size(); ++j) {
        if (merged[j].start_s - merged[i].start_s > params.window_s) break;
        ++n;
        if (session_servers.count(merged[j].sni) == 0) ++fresh;
      }
      const double delta =
          n > 0 ? static_cast<double>(fresh) / static_cast<double>(n) : 0.0;
      starts_new = n > params.n_min && delta > params.delta_min;
    }
    if (starts_new) {
      is_start[i] = true;
      session_servers.clear();
      last_start_s = merged[i].start_s;
    }
    session_servers.insert(merged[i].sni);
  }
  return is_start;
}

void IncrementalBoundaryScan::reset() {
  n_.clear();
  fresh_.clear();
  first_occ_.clear();
  active_begin_ = 0;
  evaluate_all_next_ = false;
}

void IncrementalBoundaryScan::append(std::span<const TlsRecord> window,
                                     const SessionIdParams& params) {
  DROPPKT_ASSERT(window.size() == n_.size() + 1,
                 "IncrementalBoundaryScan: window out of step with state");
  const std::size_t m = window.size() - 1;
  const double t = window[m].start_s;
  DROPPKT_ASSERT(m == 0 || window[m - 1].start_s <= t,
                 "IncrementalBoundaryScan: window lost start order");
  while (active_begin_ < m &&
         t - window[active_begin_].start_s > params.window_s) {
    ++active_begin_;
  }
  // First occurrence index of the new record's SNI within the window: the
  // new record is fresh at position i exactly when that index is >= i
  // (i.e. the SNI is absent from records [0, i)).
  std::uint32_t first = static_cast<std::uint32_t>(m);
  bool known = false;
  for (const FirstOcc& fo : first_occ_) {
    if (fo.sni_ref == window[m].sni_ref) {
      first = fo.index;
      known = true;
      break;
    }
  }
  if (!known) {
    first_occ_.push_back({window[m].sni_ref, first});
  }
  for (std::size_t i = active_begin_; i < m; ++i) {
    ++n_[i];
    if (first >= i) ++fresh_[i];
  }
  n_.push_back(0);
  fresh_.push_back(0);
}

std::size_t IncrementalBoundaryScan::evaluate(
    std::span<const TlsRecord> window, const SessionIdParams& params) {
  // A position whose look-ahead window has closed keeps its counters —
  // and therefore its (negative) decision — forever, so only the active
  // suffix needs re-evaluation... except right after a cut, when every
  // surviving position's seen-before set changed (rebuild() sets the
  // flag and we sweep from the front once).
  const std::size_t from = evaluate_all_next_ ? 1 : active_begin_;
  evaluate_all_next_ = false;
  const double anchor = window.empty() ? 0.0 : window[0].start_s;
  for (std::size_t i = from; i < window.size(); ++i) {
    if (i == 0) continue;
    if (window[i].start_s - anchor <= params.window_s) continue;  // refractory
    const std::size_t n = n_[i];
    const double delta =
        n > 0 ? static_cast<double>(fresh_[i]) / static_cast<double>(n) : 0.0;
    if (n > params.n_min && delta > params.delta_min) return i;
  }
  return 0;
}

std::size_t IncrementalBoundaryScan::on_append(
    std::span<const TlsRecord> window, const SessionIdParams& params) {
  append(window, params);
  return evaluate(window, params);
}

void IncrementalBoundaryScan::rebuild(std::span<const TlsRecord> window,
                                      const SessionIdParams& params) {
  reset();
  for (std::size_t k = 1; k <= window.size(); ++k) {
    append(window.first(k), params);
  }
  evaluate_all_next_ = true;
}

std::vector<trace::TlsLog> split_sessions(const trace::TlsLog& merged,
                                          const SessionIdParams& params) {
  const auto starts = detect_session_starts(merged, params);
  std::vector<trace::TlsLog> sessions;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (starts[i] || sessions.empty()) sessions.emplace_back();
    sessions.back().push_back(merged[i]);
  }
  return sessions;
}

}  // namespace droppkt::core
