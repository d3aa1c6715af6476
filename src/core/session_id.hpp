// Session-identification heuristic (paper Section 4.2, Table 5).
//
// Back-to-back sessions from the same service produce overlapping TLS
// transactions (connections linger past the player close), so timeouts
// cannot delimit sessions. The heuristic uses two insights instead:
// (i) a session opens with a burst of transactions, and (ii) a new session
// talks to a (mostly) fresh set of servers. A transaction starts a new
// session when more than Nmin transactions start within W seconds of it
// AND more than a δmin fraction of them target servers not yet seen in the
// current session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tls_record.hpp"
#include "trace/records.hpp"

namespace droppkt::core {

struct SessionIdParams {
  double window_s = 3.0;   // W
  std::size_t n_min = 2;   // Nmin
  double delta_min = 0.5;  // δmin
};

/// For each transaction of a time-merged log (sorted by start time),
/// decide whether it begins a new session. The first transaction is always
/// a session start.
std::vector<bool> detect_session_starts(const trace::TlsLog& merged,
                                        const SessionIdParams& params = {});

/// Convenience: split a merged log into per-session TLS logs using the
/// detected boundaries.
std::vector<trace::TlsLog> split_sessions(const trace::TlsLog& merged,
                                          const SessionIdParams& params = {});

/// Incremental form of the boundary heuristic for the streaming hot path.
///
/// Re-running detect_session_starts over a client's whole pending window
/// on every arrival costs O(window x burst) per record; this class
/// maintains the per-position burst counters (N_i and the fresh count
/// F_i) across arrivals instead, so each record costs O(records within W
/// of it). The counters are pure functions of the window content — N_i
/// counts succeeding records within W of record i, F_i those whose SNI's
/// first occurrence in the window is at or after i (equivalent to "not in
/// the servers seen before i") — so a position whose look-ahead window
/// has closed can never change its decision and is skipped until the
/// window itself is cut.
///
/// Usage (mirrors StreamingMonitor): call on_append() with the window
/// AFTER appending each record; if it returns k > 0, records [0, k) are a
/// completed session — cut them and call rebuild() with the surviving
/// suffix. Byte-identical split decisions to running
/// detect_session_starts per arrival over the equivalent transaction log
/// and cutting at the first start; the reference oracle test
/// (reference_oracle_test.cpp) holds the whole streaming stack to exactly
/// that. Between cuts, settled() tells which prefix of the window is
/// already certain to stay in the current session.
class IncrementalBoundaryScan {
 public:
  /// Forget everything (the window was emptied).
  void reset();

  /// Account for the newest record (window.back()) and return the first
  /// session-start index in [1, window.size()), or 0 when no boundary is
  /// detectable yet. `window` must be the full sorted pending window.
  std::size_t on_append(std::span<const TlsRecord> window,
                        const SessionIdParams& params);

  /// Recompute state for a window whose prefix was just cut. The cut
  /// changes every surviving position's seen-before-set, so the next
  /// on_append() re-evaluates all positions once instead of only the
  /// active suffix.
  void rebuild(std::span<const TlsRecord> window,
               const SessionIdParams& params);

  /// Index below which no position can become a cut before the next cut:
  /// the next k > 0 that on_append() returns is >= settled(). A position
  /// whose W-second look-ahead has closed (the newest record starts more
  /// than W after it) has final counters, and it was evaluated — negative
  /// — after their last change. A cut re-opens every survivor's
  /// seen-before set, so settled() reads 0 after rebuild() until the next
  /// on_append() has re-evaluated the window; the survivors of a cut lie
  /// within W of it, so they are all refractory and none becomes a cut.
  /// Always < window.size() after an append: the newest record's
  /// look-ahead is open.
  std::size_t settled() const {
    return evaluate_all_next_ ? 0 : active_begin_;
  }

 private:
  void append(std::span<const TlsRecord> window, const SessionIdParams& params);
  std::size_t evaluate(std::span<const TlsRecord> window,
                       const SessionIdParams& params);

  struct FirstOcc {
    std::uint32_t sni_ref = 0;
    std::uint32_t index = 0;  // first window index carrying sni_ref
  };
  std::vector<std::uint32_t> n_;      // succeeding records within W of i
  std::vector<std::uint32_t> fresh_;  // ... targeting servers fresh at i
  std::vector<FirstOcc> first_occ_;   // distinct SNIs (small; linear scan)
  std::size_t active_begin_ = 0;      // first position still within W
  bool evaluate_all_next_ = false;    // set by rebuild()
};

}  // namespace droppkt::core
