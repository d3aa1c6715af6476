// ML training engine benchmark: thread-pool forest fitting and compiled
// flat-forest inference.
//
// Not a paper figure: every accuracy/ablation result in EXPERIMENTS.md
// retrains Random Forests dozens of times, so fit throughput bounds how
// fast the whole evaluation suite iterates. This bench pins down the perf
// trajectory: it times forest fitting on the standard synthetic dataset
// at 1/2/4/8 threads with a per-phase timing breakdown (bootstrap draw /
// binning / tree training), and reports the batch and single-row
// throughput of ml::CompiledForest, the form RandomForest::fit leaves and
// every prediction is served from.
//
// The run is also a gate, not just a report — it exits non-zero if any
// of these fail:
//   * the fitted model depends on the thread count;
//   * the compiled batch output depends on the thread count;
//   * single-row output differs from batch output by even one bit.
// Fold-parallel CV that changes the accuracy fails; fold-parallel CV
// slower than sequential CV is a gate on multi-core hosts and a warning
// on 1-core containers (there is nothing to win). Throughput is
// report-only. Bit-identity of the compiled forest with per-tree descent
// is the CompiledForest unit tests' job, and whether training still
// reproduces the paper is the `paper` ctest label's (the Fig. 5, Table
// 2/3/4 and Fig. 6 benches), not this one's.
//
// Thread speedup requires physical cores — on a 1-core container the
// curve is flat. `hardware_concurrency` is recorded in BENCH_ml.json so
// readers can interpret the numbers.
//
// Usage:
//   bench_ml_training          full run, writes BENCH_ml.json to the cwd
//   bench_ml_training --smoke  tiny dataset, no JSON — CI exercises the
//                              parallel path and all correctness gates
//                              under -O2 in seconds
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ml/cross_validation.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using droppkt::ml::Dataset;
using droppkt::util::Rng;

/// Standard synthetic dataset: 38 features like the paper's TLS feature
/// vector — 8 informative (class-shifted means at varying scales), the
/// rest pure noise — 3 QoE-like classes.
Dataset make_synthetic(std::size_t rows, std::uint64_t seed) {
  constexpr std::size_t kFeatures = 38;
  constexpr std::size_t kInformative = 8;
  std::vector<std::string> names;
  names.reserve(kFeatures);
  for (std::size_t f = 0; f < kFeatures; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset data(std::move(names), 3);
  data.reserve(rows);
  Rng rng(seed);
  std::vector<double> row(kFeatures);
  for (std::size_t i = 0; i < rows; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, 2));
    for (std::size_t f = 0; f < kInformative; ++f) {
      const double scale = 1.0 + static_cast<double>(f);
      row[f] = label * scale + rng.normal(0.0, 2.0 * scale);
    }
    for (std::size_t f = kInformative; f < kFeatures; ++f) {
      row[f] = rng.normal();
    }
    data.add_row(row, label);
  }
  return data;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct FitRun {
  std::size_t threads = 0;
  double seconds = 0.0;
  // Per-phase breakdown from RandomForestParams::collect_timing.
  double bootstrap_draw_s = 0.0;
  double column_build_s = 0.0;
  double trees_wall_s = 0.0;
  double tree_seconds_sum = 0.0;
  double tree_seconds_max = 0.0;
};

struct CurveResult {
  std::vector<FitRun> runs;
  bool deterministic = true;
  /// The forest fitted at the first (single-thread) point of the curve,
  /// reused for accuracy / prediction sections instead of refitting.
  std::optional<droppkt::ml::RandomForest> forest_1t;
};

/// Fit the forest at each thread count, record wall time plus the
/// per-phase breakdown, and verify the serialized model is byte-identical
/// across the whole curve.
CurveResult run_fit_curve(const Dataset& train,
                          droppkt::ml::RandomForestParams params,
                          const std::vector<std::size_t>& thread_counts) {
  params.collect_timing = true;  // stats-only; the model is unaffected
  CurveResult out;
  std::string model_first;
  for (const std::size_t threads : thread_counts) {
    params.num_threads = threads;
    droppkt::ml::RandomForest forest(params);
    const auto t0 = std::chrono::steady_clock::now();
    forest.fit(train);
    FitRun run;
    run.threads = threads;
    run.seconds = seconds_since(t0);
    if (const auto* timing = forest.last_fit_timing()) {
      run.bootstrap_draw_s = timing->bootstrap_draw_s;
      run.column_build_s = timing->column_build_s;
      run.trees_wall_s = timing->trees_wall_s;
      for (const double s : timing->tree_seconds) {
        run.tree_seconds_sum += s;
        run.tree_seconds_max = std::max(run.tree_seconds_max, s);
      }
    }
    out.runs.push_back(run);

    // Compiled text: every split feature, threshold and leaf probability
    // at max_digits10, in pre-order child layout.
    std::stringstream model;
    forest.compiled().save(model);
    if (threads == thread_counts.front()) {
      model_first = model.str();
      out.forest_1t.emplace(std::move(forest));
    } else if (model.str() != model_first) {
      out.deterministic = false;
    }
    std::printf(
        "fit (%zu thread%s): %7.2f s  (%4.2fx vs 1t)\n"
        "    phases: bootstrap %.3fs | columns %.3fs | trees %.3fs "
        "(sum %.3fs, max tree %.3fs)\n",
        threads, threads == 1 ? " " : "s", run.seconds,
        out.runs.front().seconds / run.seconds, run.bootstrap_draw_s,
        run.column_build_s, run.trees_wall_s, run.tree_seconds_sum,
        run.tree_seconds_max);
  }
  std::printf("bit-identical across thread counts: %s\n\n",
              out.deterministic ? "yes" : "NO — BUG");
  return out;
}

/// Share of rows whose argmax probability is their label.
double holdout_accuracy(std::span<const double> proba, const Dataset& test) {
  const auto c_count = static_cast<std::size_t>(test.num_classes());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double* p = proba.data() + i * c_count;
    hits += static_cast<std::size_t>(
        std::max_element(p, p + c_count) - p == test.label(i));
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

/// One JSON row per fit.
void write_fit_runs_json(std::ofstream& json, const std::vector<FitRun>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    json << "    {\"threads\": " << r.threads
         << ", \"seconds\": " << r.seconds
         << ", \"speedup_vs_1t\": " << runs.front().seconds / r.seconds
         << ",\n     \"phases\": {\"bootstrap_draw_s\": " << r.bootstrap_draw_s
         << ", \"column_build_s\": " << r.column_build_s
         << ", \"trees_wall_s\": " << r.trees_wall_s
         << ", \"tree_seconds_sum\": " << r.tree_seconds_sum
         << ", \"tree_seconds_max\": " << r.tree_seconds_max << "}}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace droppkt;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t rows = smoke ? 300 : 6000;
  const std::size_t test_rows = smoke ? 200 : 20000;
  const std::size_t num_trees = smoke ? 12 : 100;
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};

  std::printf("=========================================================\n");
  std::printf("ML training engine: parallel forests, compiled flat-forest\n");
  std::printf("inference\n");
  std::printf("mode: %s | hardware_concurrency: %zu\n",
              smoke ? "smoke" : "full",
              util::ThreadPool::recommended_threads());
  std::printf("=========================================================\n\n");

  const Dataset train = make_synthetic(rows, 7777);
  const Dataset test = make_synthetic(test_rows, 8888);
  std::printf("dataset: %zu rows x %zu features, %d classes; %zu trees\n\n",
              train.size(), train.num_features(), train.num_classes(),
              num_trees);

  // The thread curve with its determinism check and per-phase breakdown.
  ml::RandomForestParams params;
  params.num_trees = num_trees;
  params.seed = 42;
  const CurveResult curve = run_fit_curve(train, params, thread_counts);

  // Compiled flat-forest inference: throughput (report-only), batch
  // output equal across thread counts, single-row output equal to batch.
  const ml::CompiledForest& cf = curve.forest_1t->compiled();
  const auto c_count = static_cast<std::size_t>(train.num_classes());
  const std::size_t max_threads = thread_counts.back();
  std::vector<double> batch_1t(test.size() * c_count);
  std::vector<double> batch_nt(batch_1t.size());
  const auto t_c1 = std::chrono::steady_clock::now();
  cf.predict_proba_batch(test, batch_1t, 1);
  const double compiled_1t_s = seconds_since(t_c1);
  const auto t_cn = std::chrono::steady_clock::now();
  cf.predict_proba_batch(test, batch_nt, max_threads);
  const double compiled_nt_s = seconds_since(t_cn);
  const bool threads_ok = batch_nt == batch_1t;

  // Single-row inference over the same probe rows, one predict_proba_into
  // per row as a streaming monitor serves them.
  std::vector<double> single(batch_1t.size());
  const auto t_s1 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < test.size(); ++r) {
    cf.predict_proba_into(
        test.row(r), std::span<double>(single).subspan(r * c_count, c_count));
  }
  const double single_1t_s = seconds_since(t_s1);
  const bool single_row_ok = single == batch_1t;

  const double accuracy = holdout_accuracy(batch_1t, test);
  std::printf("holdout accuracy: %.4f\n\n", accuracy);

  const double rows_d = static_cast<double>(test.size());
  const double thr_cf_1t = rows_d / compiled_1t_s;
  const double thr_cf_nt = rows_d / compiled_nt_s;
  const double thr_cf_single = rows_d / single_1t_s;
  std::printf("compiled predict, %zu rows x %zu nodes:\n", test.size(),
              cf.num_nodes());
  std::printf("  batch:      %8.0f rows/s (1t) | %8.0f rows/s (%zut)\n",
              thr_cf_1t, thr_cf_nt, max_threads);
  std::printf("  single-row: %8.0f rows/s (1t)\n", thr_cf_single);
  std::printf("  batch equal across threads: %s | single-row = batch: %s\n\n",
              threads_ok ? "yes" : "NO — BUG",
              single_row_ok ? "yes" : "NO — BUG");

  // Fold-parallel cross-validation (the paper's evaluation loop): one
  // shared pool, folds sequential, trees parallel within each fold.
  double cv_1t_s = 0.0, cv_nt_s = 0.0;
  bool cv_identical = true;
  bool cv_not_slower = true;
  const bool one_core = util::ThreadPool::recommended_threads() <= 1;
  if (!smoke) {
    auto factory = [] {
      ml::RandomForestParams p;
      p.num_trees = 30;
      p.num_threads = 1;  // CV-level parallelism is the measured axis
      return std::unique_ptr<ml::Classifier>(new ml::RandomForest(p));
    };
    const auto t_cv1 = std::chrono::steady_clock::now();
    const auto cv_a = ml::cross_validate(train, factory, 5, 1234, 1);
    cv_1t_s = seconds_since(t_cv1);
    const auto t_cvn = std::chrono::steady_clock::now();
    const auto cv_b = ml::cross_validate(train, factory, 5, 1234, 5);
    cv_nt_s = seconds_since(t_cvn);
    cv_identical = cv_a.accuracy() == cv_b.accuracy();
    cv_not_slower = cv_nt_s <= cv_1t_s;
    std::printf("5-fold CV (30-tree forests): %.2f s sequential | %.2f s "
                "fold-parallel | accuracy %.3f (identical: %s)\n",
                cv_1t_s, cv_nt_s, cv_a.accuracy(),
                cv_identical ? "yes" : "NO — BUG");
    if (!cv_not_slower) {
      // On a single core there is no parallelism to win; the shared pool
      // only has to not regress badly, so the gate degrades to a warning.
      std::printf("  fold-parallel slower than sequential: %s\n",
                  one_core ? "WARN (1-core host, non-fatal)" : "FAIL");
    }
  }

  if (!smoke) {
    std::ofstream json("BENCH_ml.json");
    json << "{\n  \"bench\": \"ml_training\",\n";
    json << "  \"hardware_concurrency\": "
         << util::ThreadPool::recommended_threads() << ",\n";
    json << "  \"dataset\": {\"rows\": " << train.size()
         << ", \"features\": " << train.num_features()
         << ", \"classes\": " << train.num_classes() << "},\n";
    json << "  \"forest\": {\"num_trees\": " << num_trees
         << ", \"max_depth\": " << params.max_depth << "},\n";
    json << "  \"fit_runs\": [\n";
    write_fit_runs_json(json, curve.runs);
    json << "  ],\n";
    json << "  \"deterministic_across_threads\": "
         << (curve.deterministic ? "true" : "false") << ",\n";
    json << "  \"holdout_accuracy\": " << accuracy << ",\n";
    json << "  \"predict\": {\"rows\": " << test.size()
         << ", \"compiled_rows_per_s_1t\": " << thr_cf_1t
         << ", \"compiled_rows_per_s_" << max_threads
         << "t\": " << thr_cf_nt
         << ",\n    \"compiled_single_row_rows_per_s_1t\": " << thr_cf_single
         << "},\n";
    json << "  \"cross_validation\": {\"k\": 5, \"seconds_sequential\": "
         << cv_1t_s << ", \"seconds_fold_parallel\": " << cv_nt_s
         << ", \"accuracy_identical\": " << (cv_identical ? "true" : "false")
         << "},\n";
    json << "  \"gates\": {\"deterministic\": "
         << (curve.deterministic ? "\"pass\"" : "\"fail\"")
         << ",\n    \"compiled_threads_identity\": "
         << (threads_ok ? "\"pass\"" : "\"fail\"")
         << ", \"compiled_single_row_identity\": "
         << (single_row_ok ? "\"pass\"" : "\"fail\"")
         << ", \"cv_fold_parallel\": "
         << (cv_not_slower ? "\"pass\""
                           : (one_core ? "\"warn-1core\"" : "\"fail\""))
         << "}\n";
    json << "}\n";
    std::printf("\nwrote BENCH_ml.json\n");
  }

  const bool ok = curve.deterministic && threads_ok && single_row_ok &&
                  cv_identical && (cv_not_slower || one_core);
  std::printf("\ngates: %s\n", ok ? "all pass" : "FAILED");
  return ok ? 0 : 1;
}
