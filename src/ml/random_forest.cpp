#include "ml/random_forest.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

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
  num_classes_ = train.num_classes();

  const std::size_t mtry =
      params_.max_features > 0
          ? params_.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::floor(std::sqrt(static_cast<double>(
                           train.num_features())))));

  const std::size_t n = train.size();
  const std::size_t num_trees = params_.num_trees;
  const auto c_count = static_cast<std::size_t>(num_classes_);

  // Draw every random decision sequentially from the forest RNG — the
  // bootstrap sample and tree seed for tree t depend only on t, never on
  // scheduling — so the fitted forest is bit-identical for any thread
  // count (and matches a fully sequential fit).
  struct TreeJob {
    std::vector<std::size_t> sample;      // bootstrap rows (with repeats)
    std::vector<std::uint32_t> oob_rows;  // rows not drawn by this tree
    std::uint64_t tree_seed = 0;
    std::vector<double> oob_probs;  // oob_rows.size() x num_classes
  };
  const bool timing = params_.collect_timing;
  fit_timing_ = RandomForestFitTiming{};
  if (timing) fit_timing_.tree_seconds.assign(num_trees, 0.0);
  const double t_draw0 = timing_now_s(timing);

  std::vector<TreeJob> jobs(num_trees);
  util::Rng rng(params_.seed);
  std::vector<bool> in_bag(n);
  for (auto& job : jobs) {
    job.sample.resize(n);
    std::fill(in_bag.begin(), in_bag.end(), false);
    for (std::size_t i = 0; i < n; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      job.sample[i] = j;
      in_bag[j] = true;
    }
    job.tree_seed = rng();
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_bag[i]) job.oob_rows.push_back(static_cast<std::uint32_t>(i));
    }
  }

  const double t_columns0 = timing_now_s(timing);
  if (timing) fit_timing_.bootstrap_draw_s = t_columns0 - t_draw0;

  // One shared quantization of every feature for every tree's split
  // search.
  const ColumnMatrix columns(train);

  const double t_trees0 = timing_now_s(timing);
  if (timing) fit_timing_.column_build_s = t_trees0 - t_columns0;

  trees_.assign(num_trees, DecisionTree{});
  auto train_one = [&](std::size_t t) {
    const double t_tree0 = timing_now_s(timing);
    TreeJob& job = jobs[t];
    DecisionTreeParams tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = params_.min_samples_leaf;
    tp.max_features = mtry;
    tp.seed = job.tree_seed;
    tp.class_weights = params_.class_weights;
    DecisionTree tree(tp);
    tree.fit_on(train, job.sample, columns);
    job.sample = {};  // bootstrap no longer needed; free it early
    job.oob_probs.resize(job.oob_rows.size() * c_count);
    for (std::size_t k = 0; k < job.oob_rows.size(); ++k) {
      const auto proba = tree.predict_proba_ref(train.row(job.oob_rows[k]));
      std::copy(proba.begin(), proba.end(),
                job.oob_probs.begin() + static_cast<std::ptrdiff_t>(k * c_count));
    }
    trees_[t] = std::move(tree);
    if (timing) fit_timing_.tree_seconds[t] = timing_now_s(timing) - t_tree0;
  };

  if (pool == nullptr) {
    for (std::size_t t = 0; t < num_trees; ++t) train_one(t);
  } else {
    pool->parallel_for(0, num_trees, train_one);
  }

  const double t_merge0 = timing_now_s(timing);
  if (timing) fit_timing_.trees_wall_s = t_merge0 - t_trees0;

  // OOB votes merge in tree order, so the sums (and the error) are
  // independent of which thread finished first.
  std::vector<double> votes(n * c_count, 0.0);
  std::vector<bool> ever_oob(n, false);
  for (const auto& job : jobs) {
    for (std::size_t k = 0; k < job.oob_rows.size(); ++k) {
      const std::size_t row = job.oob_rows[k];
      ever_oob[row] = true;
      for (std::size_t c = 0; c < c_count; ++c) {
        votes[row * c_count + c] += job.oob_probs[k * c_count + c];
      }
    }
  }

  // OOB error over rows that were out-of-bag at least once.
  std::size_t counted = 0, wrong = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ever_oob[i]) continue;
    ++counted;
    const double* v = votes.data() + i * c_count;
    const int pred = static_cast<int>(
        std::max_element(v, v + c_count) - v);
    if (pred != train.label(i)) ++wrong;
  }
  oob_error_ = counted
                   ? std::optional<double>(static_cast<double>(wrong) /
                                           static_cast<double>(counted))
                   : std::nullopt;
  if (timing) fit_timing_.oob_merge_s = timing_now_s(timing) - t_merge0;
}

void RandomForest::predict_proba_row(std::span<const double> features,
                                     std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict_proba_ref(features);
    for (std::size_t c = 0; c < p.size(); ++c) out[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (auto& v : out) v *= inv;
}

void RandomForest::predict_proba_into(std::span<const double> features,
                                      std::span<double> out) const {
  DROPPKT_EXPECT(!trees_.empty(), "RandomForest: predict before fit");
  DROPPKT_EXPECT(out.size() == static_cast<std::size_t>(num_classes_),
                 "RandomForest::predict_proba_into: bad output buffer size");
  predict_proba_row(features, out);
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> features) const {
  DROPPKT_EXPECT(!trees_.empty(), "RandomForest: predict before fit");
  std::vector<double> agg(static_cast<std::size_t>(num_classes_), 0.0);
  predict_proba_row(features, agg);
  return agg;
}

int RandomForest::predict(std::span<const double> features) const {
  const auto p = predict_proba(features);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

void RandomForest::predict_proba_batch(std::span<const double> matrix,
                                       std::span<double> out,
                                       std::size_t num_threads) const {
  DROPPKT_EXPECT(!trees_.empty(), "RandomForest: predict before fit");
  const std::size_t width = feature_names_.size();
  DROPPKT_EXPECT(width >= 1 && matrix.size() % width == 0,
                 "RandomForest::predict_proba_batch: matrix width mismatch");
  const std::size_t rows = matrix.size() / width;
  const auto c_count = static_cast<std::size_t>(num_classes_);
  DROPPKT_EXPECT(out.size() == rows * c_count,
                 "RandomForest::predict_proba_batch: bad output buffer size");
  auto one_row = [&](std::size_t r) {
    predict_proba_row(matrix.subspan(r * width, width),
                      out.subspan(r * c_count, c_count));
  };
  const std::size_t threads =
      std::min(util::ThreadPool::resolve_threads(num_threads),
               std::max<std::size_t>(1, rows));
  if (threads <= 1 || rows <= 1) {
    for (std::size_t r = 0; r < rows; ++r) one_row(r);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(0, rows, one_row);
  }
}

void RandomForest::predict_proba_batch(const Dataset& data,
                                       std::span<double> out,
                                       std::size_t num_threads) const {
  DROPPKT_EXPECT(!trees_.empty(), "RandomForest: predict before fit");
  const auto c_count = static_cast<std::size_t>(num_classes_);
  DROPPKT_EXPECT(out.size() == data.size() * c_count,
                 "RandomForest::predict_proba_batch: bad output buffer size");
  auto one_row = [&](std::size_t r) {
    predict_proba_row(data.row(r), out.subspan(r * c_count, c_count));
  };
  const std::size_t threads =
      std::min(util::ThreadPool::resolve_threads(num_threads),
               std::max<std::size_t>(1, data.size()));
  if (threads <= 1 || data.size() <= 1) {
    for (std::size_t r = 0; r < data.size(); ++r) one_row(r);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(0, data.size(), one_row);
  }
}

std::vector<int> RandomForest::predict_batch(const Dataset& data,
                                             std::size_t num_threads) const {
  const auto c_count = static_cast<std::size_t>(num_classes_);
  std::vector<double> proba(data.size() * c_count);
  predict_proba_batch(data, proba, num_threads);
  std::vector<int> preds(data.size());
  for (std::size_t r = 0; r < data.size(); ++r) {
    const double* p = proba.data() + r * c_count;
    preds[r] = static_cast<int>(std::max_element(p, p + c_count) - p);
  }
  return preds;
}

std::vector<double> RandomForest::feature_importances() const {
  DROPPKT_EXPECT(!trees_.empty(), "RandomForest: importances before fit");
  std::vector<double> total(feature_names_.size(), 0.0);
  for (const auto& tree : trees_) {
    const auto& imp = tree.impurity_decrease();
    for (std::size_t f = 0; f < imp.size(); ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (auto& v : total) v /= sum;
  }
  return total;
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
