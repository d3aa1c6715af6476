// Shared scaffolding for the experiment benches.
//
// Every bench regenerates the paper-scale dataset deterministically from a
// fixed seed (scale down with DROPPKT_SESSIONS_SCALE=0.1 for quick runs)
// and prints the corresponding paper table/figure as text, alongside the
// paper's reported numbers for comparison.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>

#include "core/dataset_builder.hpp"
#include "core/pipeline.hpp"

namespace droppkt::bench {

/// Master seed shared by all benches so figures are mutually consistent.
inline constexpr std::uint64_t kBenchSeed = 20201204;

/// Paper-scale dataset for one service (cached per process).
inline const core::LabeledDataset& dataset_for(const std::string& service) {
  static std::map<std::string, core::LabeledDataset> cache;
  auto it = cache.find(service);
  if (it == cache.end()) {
    core::DatasetConfig cfg;
    cfg.seed = kBenchSeed;
    const auto t0 = std::chrono::steady_clock::now();
    auto ds = core::build_dataset(has::service_by_name(service), cfg);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::fprintf(stderr, "[bench] simulated %zu %s sessions in %lld ms\n",
                 ds.size(), service.c_str(), static_cast<long long>(ms));
    it = cache.emplace(service, std::move(ds)).first;
  }
  return it->second;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n\n");
}

/// The paper's relative claims a bench reproduces, as a gate. Each
/// predicate is evaluated from unrounded values and printed as one line
/// — `claim <id>: <measured values>: holds|BROKEN` — and exit_code() is 1
/// once any predicate broke. The `paper` ctest label runs these benches.
class Claims {
 public:
  /// Record one predicate; `fmt` formats the measured values it read.
  [[gnu::format(printf, 4, 5)]] void check(const char* id, bool holds,
                                           const char* fmt, ...) {
    char values[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(values, sizeof(values), fmt, args);
    va_end(args);
    if (lines_ == 0) std::printf("\npaper claims:\n");
    ++lines_;
    std::printf("  claim %s: %s: %s\n", id, values,
                holds ? "holds" : "BROKEN");
    broken_ += holds ? 0 : 1;
  }

  int exit_code() const {
    std::printf("paper claims: %d of %d hold\n", lines_ - broken_, lines_);
    return broken_ == 0 ? 0 : 1;
  }

 private:
  int lines_ = 0;
  int broken_ = 0;
};

inline std::string pct0(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.0f%%", 100.0 * fraction);
  return buf;
}

}  // namespace droppkt::bench
