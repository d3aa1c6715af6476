#include "ml/random_forest.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "ml/decision_tree.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace droppkt::ml {

namespace {

// Stats-only phase clock for RandomForestParams::collect_timing: reads
// feed RandomForestFitTiming and never influence the fitted model (the
// analyzer's wallclock allowlist records this justification).
double timing_now_s(bool enabled) {
  if (!enabled) return 0.0;
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RandomForest::RandomForest(RandomForestParams params)
    : params_(std::move(params)) {
  DROPPKT_EXPECT(params_.num_trees >= 1, "RandomForest: need >= 1 tree");
}

void RandomForest::fit(const Dataset& train) {
  const std::size_t threads = std::min(
      util::ThreadPool::resolve_threads(params_.num_threads),
      params_.num_trees);
  if (threads <= 1) {
    fit_impl(train, nullptr);
  } else {
    util::ThreadPool pool(threads);
    fit_impl(train, &pool);
  }
}

void RandomForest::fit_on_pool(const Dataset& train, util::ThreadPool& pool) {
  fit_impl(train, &pool);
}

void RandomForest::fit_impl(const Dataset& train, util::ThreadPool* pool) {
  DROPPKT_EXPECT(train.size() >= 2, "RandomForest: need >= 2 training rows");
  feature_names_ = train.feature_names();

  const std::size_t mtry =
      params_.max_features > 0
          ? params_.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::floor(std::sqrt(static_cast<double>(
                           train.num_features())))));

  const std::size_t n = train.size();
  const std::size_t num_trees = params_.num_trees;
  const bool timing = params_.collect_timing;
  fit_timing_ = RandomForestFitTiming{};
  if (timing) fit_timing_.tree_seconds.assign(num_trees, 0.0);

  std::vector<DecisionTree> trees(num_trees);
  {
    // Draw every random decision sequentially from the forest RNG — the
    // bootstrap sample and tree seed for tree t depend only on t, never on
    // scheduling — so the fitted forest is bit-identical for any thread
    // count (and matches a fully sequential fit).
    struct TreeJob {
      std::vector<std::size_t> sample;  // bootstrap rows (with repeats)
      std::uint64_t tree_seed = 0;
    };
    const double t_draw0 = timing_now_s(timing);
    std::vector<TreeJob> jobs(num_trees);
    util::Rng rng(params_.seed);
    for (auto& job : jobs) {
      job.sample.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        job.sample[i] = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      }
      job.tree_seed = rng();
    }

    const double t_columns0 = timing_now_s(timing);
    if (timing) fit_timing_.bootstrap_draw_s = t_columns0 - t_draw0;

    // One shared quantization of every feature for every tree's split
    // search.
    const ColumnMatrix columns(train);

    const double t_trees0 = timing_now_s(timing);
    if (timing) fit_timing_.column_build_s = t_trees0 - t_columns0;

    auto train_one = [&](std::size_t t) {
      const double t_tree0 = timing_now_s(timing);
      TreeJob& job = jobs[t];
      DecisionTreeParams tp;
      tp.max_depth = params_.max_depth;
      tp.min_samples_leaf = params_.min_samples_leaf;
      tp.max_features = mtry;
      tp.seed = job.tree_seed;
      tp.class_weights = params_.class_weights;
      trees[t] = DecisionTree(tp);
      trees[t].fit_on(train, job.sample, columns);
      job.sample = {};  // bootstrap no longer needed; free it early
      if (timing) fit_timing_.tree_seconds[t] = timing_now_s(timing) - t_tree0;
    };

    if (pool == nullptr) {
      for (std::size_t t = 0; t < num_trees; ++t) train_one(t);
    } else {
      pool->parallel_for(0, num_trees, train_one);
    }
    if (timing) fit_timing_.trees_wall_s = timing_now_s(timing) - t_trees0;
  }

  // The bootstrap samples and bins are gone; only the trees are alive
  // while they compile. Importances sum in tree order, so they too are
  // independent of which thread finished first.
  importances_.assign(feature_names_.size(), 0.0);
  for (const auto& tree : trees) {
    const auto& imp = tree.impurity_decrease();
    for (std::size_t f = 0; f < imp.size(); ++f) importances_[f] += imp[f];
  }
  double sum = 0.0;
  for (double v : importances_) sum += v;
  if (sum > 0.0) {
    for (auto& v : importances_) v /= sum;
  }
  compiled_ = CompiledForest::compile(trees);
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> features) const {
  std::vector<double> proba(
      static_cast<std::size_t>(compiled_.num_classes()));
  compiled_.predict_proba_into(features, proba);
  return proba;
}

int RandomForest::predict(std::span<const double> features) const {
  return compiled_.predict(features);
}

std::vector<double> RandomForest::feature_importances() const {
  DROPPKT_EXPECT(compiled_.compiled(), "RandomForest: importances before fit");
  return importances_;
}

std::vector<std::pair<std::string, double>> RandomForest::ranked_importances()
    const {
  const auto imp = feature_importances();
  std::vector<std::pair<std::string, double>> ranked;
  ranked.reserve(imp.size());
  for (std::size_t f = 0; f < imp.size(); ++f) {
    ranked.emplace_back(feature_names_[f], imp[f]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return ranked;
}

}  // namespace droppkt::ml
