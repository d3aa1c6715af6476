// The paper's 38-feature representation of a session's TLS transactions
// (Section 3, Table 1):
//
//   Session level (4):    SDR_DL, SDR_UL, SES_DUR, TRANS_PER_SEC
//   Transaction stats     min/med/max of DL_SIZE, UL_SIZE, DUR, TDR,
//     (18):               D2U, IAT
//   Temporal stats (16):  CUM_DL_XXs / CUM_UL_XXs at interval end-points
//                         {30,60,120,240,480,720,960,1200} s
#pragma once

#include <string>
#include <vector>

#include "trace/records.hpp"

namespace droppkt::core {

/// Interval end-points for the temporal features — a model hyperparameter
/// the paper tunes (Section 3).
struct TlsFeatureConfig {
  std::vector<double> interval_ends_s{30, 60, 120, 240, 480, 720, 960, 1200};
  /// Also emit MEAN and STD per transaction metric. The paper considered
  /// these and dropped them as "highly correlated to one of the existing
  /// statistics" (footnote 5); the stats ablation bench measures that.
  bool extended_stats = false;
};

/// Number of features a config produces (38 with the default config).
/// Cheap — callers that only need the vector width (batch loops, span
/// sizing) should use this instead of tls_feature_names(...).size(),
/// which builds a vector<string> per call.
inline std::size_t tls_feature_count(const TlsFeatureConfig& config = {}) {
  const std::size_t per_metric = config.extended_stats ? 5u : 3u;
  return 4 + 6 * per_metric + 2 * config.interval_ends_s.size();
}

/// Names of the session-level features (4).
std::vector<std::string> session_level_feature_names();
/// Names of the transaction-statistic features (18).
std::vector<std::string> transaction_stat_feature_names();
/// Names of the temporal features (2 per interval).
std::vector<std::string> temporal_feature_names(const TlsFeatureConfig& config);
/// All names in extraction order (38 with the default config).
std::vector<std::string> tls_feature_names(const TlsFeatureConfig& config = {});

/// Extract the feature vector for one session's TLS log.
///
/// Times inside `log` must be session-relative (first transaction near 0);
/// the dataset builder guarantees this. An empty log yields all-zero
/// features. Transactions need not be sorted.
///
/// Thin wrapper over TlsFeatureAccumulator (core/feature_accumulator.hpp):
/// feeds the log through one accumulator and snapshots it, so batch and
/// incremental extraction share one code path and are bit-identical by
/// construction. Streaming callers should hold an accumulator directly.
std::vector<double> extract_tls_features(const trace::TlsLog& log,
                                         const TlsFeatureConfig& config = {});

/// What a monitor would have exported by `horizon_s` after the session's
/// first transaction: later transactions are dropped, and transactions
/// still open at the horizon are clipped there with proportional byte
/// shares. Truncation followed by extract_tls_features is the
/// early-detection path (the paper notes TLS data is only complete once
/// connections close — Section 4.3).
trace::TlsLog truncate_tls_log(const trace::TlsLog& log, double horizon_s);

}  // namespace droppkt::core
