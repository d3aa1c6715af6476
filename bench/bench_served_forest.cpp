// Served-forest gate: the forest a default core::EstimatorConfig trains and
// serves, against the paper protocol's 100 trees of depth 24
// (ml::RandomForestParams{}), on the benchmark's offline protocol. At each
// dataset seed s in 1-10, both estimators train on Svc1-3 at the paper's
// session counts simulated at seed s and classify the same services
// simulated at seed s + 1 (combined target). Prints the paired held-out
// accuracy per seed and per service, and the single-row predict cost and
// saved model size of both forests; gates the accuracy the served forest
// gives up against bounds fixed before the first measurement.
#include <algorithm>
#include <chrono>
#include <sstream>

#include "bench_common.hpp"
#include "util/render.hpp"
#include "util/stats.hpp"

namespace {

using namespace droppkt;

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kLastSeed = 10;
constexpr std::size_t kNumServices = 3;
const char* const kServices[kNumServices] = {"Svc1", "Svc2", "Svc3"};

// Paired pooled held-out accuracy, served minus paper, in points.
constexpr double kMeanBoundPoints = -0.5;  // mean over the ten seeds
constexpr double kSeedBoundPoints = -1.0;  // every seed

core::LabeledDataset simulate(const char* service, std::uint64_t seed) {
  core::DatasetConfig cfg;  // paper session count for the service
  cfg.seed = seed;
  return core::build_dataset(has::service_by_name(service), cfg);
}

/// Held-out sessions `est` classifies right on the combined target.
std::size_t correct(const core::QoeEstimator& est,
                    const core::LabeledDataset& held) {
  std::vector<trace::TlsLog> logs;
  logs.reserve(held.size());
  for (const auto& s : held) logs.push_back(s.record.tls);
  const std::vector<int> predicted = est.predict_batch(logs);
  std::size_t n = 0;
  for (std::size_t i = 0; i < held.size(); ++i) {
    n += predicted[i] == held[i].labels.label_for(core::QoeTarget::kCombined);
  }
  return n;
}

/// Median over five passes of the mean single-row predict_proba_into
/// cost, in ns, over every held-out session's feature vector.
double predict_ns(const core::QoeEstimator& est,
                  const core::LabeledDataset& held) {
  std::vector<std::vector<double>> rows;
  rows.reserve(held.size());
  for (const auto& s : held) {
    rows.push_back(core::extract_tls_features(s.record.tls,
                                              est.config().features));
  }
  std::vector<double> proba(core::kNumQoeClasses);
  std::vector<double> pass_ns;
  double sink = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& row : rows) {
      est.predict_proba_into(row, proba);
      sink += proba[0];
    }
    const auto ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    pass_ns.push_back(ns / static_cast<double>(rows.size()));
  }
  if (sink < 0.0) std::printf("unreachable\n");  // keeps the loop live
  return util::median(pass_ns);
}

std::size_t saved_bytes(const core::QoeEstimator& est) {
  std::ostringstream os;
  est.save(os);
  return os.str().size();
}

/// The lowest per-seed difference and the seed it came from.
struct Worst {
  double diff;
  unsigned long long seed;
};

Worst worst_of(const std::vector<double>& per_seed) {
  const auto it = std::min_element(per_seed.begin(), per_seed.end());
  const auto index = static_cast<std::uint64_t>(it - per_seed.begin());
  return {*it, static_cast<unsigned long long>(kFirstSeed + index)};
}

std::string points(double diff) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%+.2f", diff);
  return buf;
}

std::string pct2(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * fraction);
  return buf;
}

}  // namespace

int main() {
  bench::print_header(
      "Served forest - held-out accuracy of the served forest vs the paper's",
      "Section 4 model (Random Forest), sized for per-session serving");

  const core::EstimatorConfig paper_cfg = bench::paper_estimator();
  const core::EstimatorConfig served_cfg;
  std::printf("paper forest : %zu trees, max_depth %d\n",
              paper_cfg.forest.num_trees, paper_cfg.forest.max_depth);
  std::printf("served forest: %zu trees, max_depth %d\n",
              served_cfg.forest.num_trees, served_cfg.forest.max_depth);
  std::printf("protocol: train Svc1-3 at seed s (paper session counts), "
              "hold out seed s + 1, combined target, s = %llu-%llu\n\n",
              static_cast<unsigned long long>(kFirstSeed),
              static_cast<unsigned long long>(kLastSeed));

  std::vector<std::string> header = {"seed"};
  for (const char* svc : kServices) {
    header.push_back(std::string(svc) + " paper / served (pts)");
  }
  header.insert(header.end(),
                {"pooled paper", "pooled served", "pooled diff (pts)"});
  util::TextTable table(header);

  std::vector<double> pooled_diff;
  std::vector<double> service_diff[kNumServices];
  util::TextTable cost(
      {"service", "forest", "predict ns/row", "saved model bytes"});

  std::vector<core::LabeledDataset> train(kNumServices);
  for (std::size_t v = 0; v < kNumServices; ++v) {
    train[v] = simulate(kServices[v], kFirstSeed);
  }
  for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    std::vector<std::string> row = {std::to_string(seed)};
    std::size_t paper_ok = 0, served_ok = 0, held_total = 0;
    for (std::size_t v = 0; v < kNumServices; ++v) {
      core::LabeledDataset held = simulate(kServices[v], seed + 1);
      core::QoeEstimator paper(paper_cfg);
      paper.train(train[v]);
      core::QoeEstimator served(served_cfg);
      served.train(train[v]);

      const std::size_t p = correct(paper, held);
      const std::size_t s = correct(served, held);
      const double n = static_cast<double>(held.size());
      const double diff =
          100.0 * (static_cast<double>(s) - static_cast<double>(p)) / n;
      service_diff[v].push_back(diff);
      row.push_back(pct2(static_cast<double>(p) / n) + " / " +
                    pct2(static_cast<double>(s) / n) + " (" + points(diff) +
                    ")");
      paper_ok += p;
      served_ok += s;
      held_total += held.size();

      if (seed == kFirstSeed) {
        const auto add_cost = [&](const char* name,
                                  const core::QoeEstimator& est) {
          char ns[32];
          std::snprintf(ns, sizeof(ns), "%.0f", predict_ns(est, held));
          cost.add_row({kServices[v], name, ns,
                        std::to_string(saved_bytes(est))});
        };
        add_cost("paper", paper);
        add_cost("served", served);
      }
      train[v] = std::move(held);  // seed s + 1 trains the next round
    }
    const double total = static_cast<double>(held_total);
    const double diff = 100.0 * (static_cast<double>(served_ok) -
                                 static_cast<double>(paper_ok)) / total;
    pooled_diff.push_back(diff);
    row.insert(row.end(), {pct2(static_cast<double>(paper_ok) / total),
                           pct2(static_cast<double>(served_ok) / total),
                           points(diff)});
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("paired difference (served - paper, points) over seeds "
              "%llu-%llu:\n",
              static_cast<unsigned long long>(kFirstSeed),
              static_cast<unsigned long long>(kLastSeed));
  for (std::size_t v = 0; v < kNumServices; ++v) {
    const Worst w = worst_of(service_diff[v]);
    std::printf("  %s  : mean %+.2f, worst %+.2f (seed %llu)\n", kServices[v],
                util::mean(service_diff[v]), w.diff, w.seed);
  }
  const Worst worst = worst_of(pooled_diff);
  const double mean = util::mean(pooled_diff);
  std::printf("  pooled: mean %+.2f, worst %+.2f (seed %llu)\n\n", mean,
              worst.diff, worst.seed);

  std::printf("single-row predict and saved model size, seed %llu "
              "(timings report-only):\n%s\n",
              static_cast<unsigned long long>(kFirstSeed),
              cost.render().c_str());

  bench::Claims claims;
  claims.check("served_forest.accuracy_within_bound",
               mean >= kMeanBoundPoints && worst.diff >= kSeedBoundPoints,
               "served %zu x %d vs paper %zu x %d: mean pooled diff %+.4f "
               "points (bound %+.1f), worst seed %llu %+.4f (bound %+.1f)",
               served_cfg.forest.num_trees, served_cfg.forest.max_depth,
               paper_cfg.forest.num_trees, paper_cfg.forest.max_depth, mean,
               kMeanBoundPoints, worst.seed, worst.diff, kSeedBoundPoints);
  return claims.exit_code();
}
