// droppkt_benchmark: the end-to-end and per-layer yardstick of droppkt.
//
//   droppkt_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-file <spans.json>] [--work-dir <dir>]
//   droppkt_benchmark --self-test
//
// Drives the library through its public API only. Prints every metric by
// name with its unit, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits non-zero when an
// output check fails. See benchmark/README.md for every definition.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "streaming.hpp"
#include "workloads.hpp"

namespace {

using namespace droppkt;
using namespace droppkt::benchmark;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string work_dir = ".";
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "droppkt_benchmark: %s\n"
               "usage: droppkt_benchmark --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>] "
               "[--work-dir <dir>]\n"
               "       droppkt_benchmark --self-test\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.self_test) return o;
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!have_seed) usage("--seed <n> is required");
  return o;
}

/// Run `body` at least `min_reps` times and until `budget_s` has passed.
template <class F>
void repeat(std::size_t min_reps, double budget_s, F&& body) {
  constexpr std::size_t kMaxReps = 1000;
  const std::int64_t start = now_ns();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= min_reps &&
        static_cast<double>(now_ns() - start) / 1e9 >= budget_s) {
      break;
    }
    body();
  }
}

/// Quartiles of a run's per-pass (or per-window) values, for the log.
void print_spread(const char* what, const std::vector<double>& v) {
  std::printf("  %-42s n %4zu  q1 %12.4g  median %12.4g  q3 %12.4g\n",
              what, v.size(), percentile(v, 0.25), median(v),
              percentile(v, 0.75));
}

/// A private directory for the saved models, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(const std::string& parent)
      : path_(parent + "/droppkt-benchmark-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<core::QoeEstimator> load_models(const Models& models) {
  std::vector<core::QoeEstimator> loaded;
  for (const std::string& path : models.paths) {
    loaded.push_back(core::QoeEstimator::load_file(path));
  }
  return loaded;
}

/// One setup_s rep: load the saved model(s) and build the serving objects
/// (streaming: a Deployment, its threads started), up to the first ingest.
/// Reps are spread over the run: the calling thread can sit on a slowed
/// CPU for a second at a time, and one such stretch must not decide the
/// median.
void time_setup(const Inputs& in, const Models& models, double factor,
                Scaled& setup_s, Scaled& load_ms) {
  const std::int64_t t0 = now_ns();
  const std::vector<core::QoeEstimator> loaded = load_models(models);
  const std::int64_t t1 = now_ns();
  if (in.streaming) {
    const Deployment dep(loaded.front(), in.stream,
                         [](const core::MonitoredSessionView&) {}, {});
    setup_s.add_time(static_cast<double>(now_ns() - t0) / 1e9, factor);
  } else {
    setup_s.add_time(static_cast<double>(t1 - t0) / 1e9, factor);
  }
  load_ms.add_time(static_cast<double>(t1 - t0) / 1e6, factor);
}

void print_digests(const Oracle& oracle) {
  std::string sessions;
  for (const std::string& line : oracle.sessions) sessions += line + '\n';
  std::printf("oracle: %zu sessions (%zu flushed at finish), %llu provisional "
              "estimates, %zu alert events\n",
              oracle.sessions.size(), oracle.at_close.size(),
              static_cast<unsigned long long>(oracle.provisionals),
              oracle.alert_log.size());
  std::printf("sha256 sessions %s\n", sha256_hex(sessions).c_str());
  std::printf("sha256 alerts   %s\n", sha256_hex(oracle.alerts).c_str());
}

/// incident_churn: detection delay and alarms against the injected truth.
void print_alert_quality(const Inputs& in, const Oracle& oracle) {
  if (!in.truth) return;
  std::map<std::string, double> first_raise;
  for (const auto& ev : oracle.alert_log) {
    if (ev.kind == alert::AlertEvent::Kind::kRaised) {
      first_raise.try_emplace(ev.location, ev.time_s);
    }
  }
  std::vector<double> delays;
  std::size_t missed = 0;
  for (const auto& loc : in.truth->degraded_locations) {
    const auto it = first_raise.find(loc);
    if (it == first_raise.end()) {
      ++missed;
    } else {
      delays.push_back(it->second - in.truth->incident_start_s);
    }
  }
  std::size_t false_alarms = 0;
  for (const auto& loc : in.truth->healthy_locations) {
    false_alarms += first_raise.count(loc);
  }
  std::printf("alert quality: median delay %.1f feed s over %zu raised "
              "degraded cells, %zu missed, %zu false alarms (healthy cells "
              "raised)\n",
              median(delays), delays.size(), missed, false_alarms);
}

/// Verdict latency percentiles of one pass, one pair per window.
void add_latency(const std::vector<double>& latency_us, double factor,
                 Scaled& p50, Scaled& p99) {
  for (const std::vector<double>& w : windows(latency_us)) {
    p50.add_time(percentile(w, 0.50), factor);
    p99.add_time(percentile(w, 0.99), factor);
  }
}

double per_record_ns(double seconds, std::size_t records) {
  return seconds * 1e9 / static_cast<double>(std::max<std::size_t>(records, 1));
}

void print_run(const char* label, const EngineRun& r) {
  std::printf("%-10s %9.0f rec/s offered, %9.0f rec/s done, cpu %.3f cores, "
              "p50 %9.1f us, p99 %9.1f us (%zu verdicts), end lag %.1f us\n",
              label, r.rate, static_cast<double>(r.offered) / r.wall_s,
              r.cpu_s / r.wall_s, percentile(r.latency_us, 0.5),
              percentile(r.latency_us, 0.99), r.latency_us.size(),
              r.end_lag_us);
}

// ---------------------------------------------------------------------------
// End-to-end runs (--trace 0)
// ---------------------------------------------------------------------------

/// Keep a probe factor for the log's quartiles, and pass it on.
double logged(std::vector<double>& log, double factor) {
  log.push_back(factor);
  return factor;
}

/// Report a timing metric: the median of its reps, each scaled to the
/// machine's quiet speed by a probe sample taken just before it. On a
/// shared machine the speed available to busy threads drifts by tens of
/// percent over minutes; the probe measures that drift with code the
/// program under test never runs. The unscaled median goes to the log.
void report_timing(Report& report, const std::string& name, const Scaled& v,
                   const std::string& unit) {
  std::printf("  %-36s unscaled median %.6g %s\n", name.c_str(),
              median(v.raw), unit.c_str());
  report.metric(name, median(v.scaled), unit);
}

void streaming_end_to_end(const Inputs& in, const Options& opt,
                          const std::string& work_dir, Report& report) {
  MachineProbe probe;
  const Models models =
      build_models(in, work_dir, 3, 0.1 * opt.seconds, probe, report);
  const std::vector<core::QoeEstimator> serving = load_models(models);
  const core::QoeEstimator& est = serving.front();
  const Oracle oracle = run_oracle(est, in);
  print_digests(oracle);
  print_alert_quality(in, oracle);
  check_run(run_engine(est, in, 0.0, oracle), oracle, "warm-up run", report);

  // A set-up, a closed-loop pass and a reference-rate pass alternate for
  // the rest of the budget, so all sample the same stretch of machine time.
  // Each closed-loop pass also gives a peak-memory reading. The reference
  // rate is stated for the quiet machine: a paced pass offers it times the
  // machine factor sampled just before, so the shard workers stay as busy
  // as on the quiet machine. Offered the same rate, a machine running 20%
  // slow raised latency by 40% through the longer queues, which no scaling
  // of the result could undo.
  const double reference = in.stream.ladder.front();
  Scaled setup_s, load_ms, line_rate, p50, p99, cpu;
  std::vector<double> mem, parallel, serial, offered;
  std::size_t verdicts = 0;
  repeat(5, 0.8 * opt.seconds, [&] {
    time_setup(in, models, logged(serial, probe.serial()), setup_s, load_ms);
    const double before_line = logged(parallel, probe.parallel());
    const EngineRun line = run_engine(est, in, 0.0, oracle);
    check_run(line, oracle, "line-rate run", report);
    line_rate.add_rate(static_cast<double>(line.offered) / line.wall_s,
                       before_line);
    mem.push_back(line.peak_heap_mib);

    const double factor = logged(parallel, probe.parallel());
    offered.push_back(reference * factor);
    const EngineRun paced = run_engine(est, in, reference * factor, oracle);
    check_run(paced, oracle, "reference-rate run", report);
    verdicts = paced.latency_us.size();
    report.check(percentile_supported(verdicts, 0.99),
                 "too few verdicts for a p99 (" + std::to_string(verdicts) +
                     ")");
    add_latency(paced.latency_us, factor, p50, p99);
    // CPU time per record at the scaled rate grows with the wall time each
    // record takes, most of it shard workers polling while idle.
    cpu.add_time(paced.cpu_s * 1e6 / static_cast<double>(paced.offered),
                 factor);
  });
  print_spread("machine factor, 4 threads", parallel);
  print_spread("machine factor, this thread", serial);
  print_spread("setup (s)", setup_s.raw);
  print_spread("line rate (rec/s)", line_rate.raw);
  print_spread("peak heap growth (MiB)", mem);
  std::printf("reference rate %.0f rec/s on the quiet machine, %zu verdicts "
              "per pass in %zu window(s):\n",
              reference, verdicts, window_count(verdicts));
  print_spread("offered rate (rec/s)", offered);
  print_spread("verdict latency p50 (us), windows", p50.raw);
  print_spread("verdict latency p99 (us), windows", p99.raw);
  print_spread("CPU per record (us)", cpu.raw);

  report_timing(report, "setup_s", setup_s, "s");
  report_timing(report, "line_rate_per_s", line_rate, "1/s");
  report_timing(report, "verdict_latency_p50_us", p50, "us");
  report_timing(report, "verdict_latency_p99_us", p99, "us");
  report_timing(report, "cpu_us_per_item", cpu, "us");
  report.metric("mem_peak_mb", median(mem), "MiB");
  report_timing(report, "train_s", models.train_s, "s");
  report.metric("accuracy", models.accuracy, "fraction");
}

void offline_end_to_end(const Inputs& in, const Options& opt,
                        const std::string& work_dir, Report& report) {
  MachineProbe probe;
  const Models models =
      build_models(in, work_dir, 3, 0.35 * opt.seconds, probe, report);
  const std::vector<core::QoeEstimator> serving = load_models(models);
  std::vector<std::vector<trace::TlsLog>> logs(in.services.size());
  for (std::size_t s = 0; s < in.services.size(); ++s) {
    for (const auto& ls : in.heldout[s]) logs[s].push_back(ls.record.tls);
  }
  const auto sessions = static_cast<double>(models.heldout_sessions);

  // A set-up, batch classification (4 threads) and single-session verdict
  // latency (one log in, one class out, on this thread) alternate, each
  // pass over every held-out session. CPU time per session is scaled too:
  // here it is all classification work.
  Scaled setup_s, load_ms, rate, cpu, p50, p99;
  std::vector<double> parallel, serial;
  std::uint64_t differ = 0;
  repeat(5, 0.55 * opt.seconds, [&] {
    time_setup(in, models, logged(serial, probe.serial()), setup_s, load_ms);
    const double factor = logged(parallel, probe.parallel());
    std::vector<std::vector<int>> batch(logs.size());
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < logs.size(); ++s) {
      batch[s] = serving[s].predict_batch(logs[s]);
    }
    rate.add_rate(sessions / (static_cast<double>(now_ns() - t0) / 1e9),
                  factor);
    cpu.add_time((process_cpu_s() - cpu0) * 1e6 / sessions, factor);

    // The services take turns, so every latency window mixes all three.
    const double single = logged(serial, probe.serial());
    std::vector<double> lat;
    lat.reserve(models.heldout_sessions);
    for (std::size_t i = 0; lat.size() < models.heldout_sessions; ++i) {
      for (std::size_t s = 0; s < logs.size(); ++s) {
        if (i >= logs[s].size()) continue;
        const std::int64_t t1 = now_ns();
        const int cls = serving[s].predict(logs[s][i]);
        lat.push_back(static_cast<double>(now_ns() - t1) / 1e3);
        differ += cls != batch[s][i];
      }
    }
    report.attempted(models.heldout_sessions);
    report.check(percentile_supported(lat.size(), 0.99),
                 "too few sessions for a p99");
    add_latency(lat, single, p50, p99);
  });
  report.fail(differ, "single-session predictions differ from predict_batch");
  std::printf("classify: %zu held-out sessions per pass in %zu window(s)\n",
              models.heldout_sessions,
              window_count(models.heldout_sessions));
  print_spread("machine factor, 4 threads", parallel);
  print_spread("machine factor, this thread", serial);
  print_spread("setup (s)", setup_s.raw);
  print_spread("batch classification (sessions/s)", rate.raw);
  print_spread("single-session latency p50 (us), windows", p50.raw);
  print_spread("single-session latency p99 (us), windows", p99.raw);

  report_timing(report, "setup_s", setup_s, "s");
  report_timing(report, "line_rate_per_s", rate, "1/s");
  report_timing(report, "verdict_latency_p50_us", p50, "us");
  report_timing(report, "verdict_latency_p99_us", p99, "us");
  report_timing(report, "cpu_us_per_item", cpu, "us");
  report.metric("mem_peak_mb", models.mem_peak_mb, "MiB");
  report_timing(report, "train_s", models.train_s, "s");
  report.metric("accuracy", models.accuracy, "fraction");
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)
// ---------------------------------------------------------------------------

void traced(const Inputs& in, const Options& opt, const std::string& work_dir,
            SpanRecorder& recorder, Report& report) {
  const auto tracing = [&](bool on) {
    SpanRecorder::install(on ? &recorder : nullptr);
  };
  tracing(false);
  MachineProbe probe;
  const Models models = build_models(in, work_dir, 1, 0.0, probe, report);
  Scaled setup_s, load_ms;
  for (int rep = 0; rep < 9; ++rep) {
    time_setup(in, models, 1.0, setup_s, load_ms);
  }
  const std::vector<core::QoeEstimator> serving = load_models(models);
  const core::QoeEstimator& est = serving.front();

  tracing(true);
  const Oracle oracle = run_oracle(est, in);
  tracing(false);
  print_digests(oracle);
  print_alert_quality(in, oracle);
  report.check(percentile_supported(oracle.advance_us.size(), 0.9),
               "too few watermarks for an advance_time p90");

  check_run(run_engine(est, in, 0.0, oracle), oracle, "warm-up run", report);

  // Alternate untraced and traced line-rate runs: the tracing overhead and
  // the engine-side spans of a closed-loop run.
  std::vector<double> plain_rate, traced_rate, ingest_ns, finish_ms, skew;
  repeat(3, 0.3 * opt.seconds, [&] {
    const EngineRun plain = run_engine(est, in, 0.0, oracle);
    check_run(plain, oracle, "line-rate run", report);
    plain_rate.push_back(static_cast<double>(plain.offered) / plain.wall_s);
    tracing(true);
    const EngineRun r = run_engine(est, in, 0.0, oracle);
    tracing(false);
    check_run(r, oracle, "traced line-rate run", report);
    traced_rate.push_back(static_cast<double>(r.offered) / r.wall_s);
    double ingest_us = 0.0;
    for (double d : recorder.durations_us("engine.ingest_batch", r.phase_span)) {
      ingest_us += d;
    }
    ingest_ns.push_back(ingest_us * 1e3 / static_cast<double>(r.offered));
    finish_ms.push_back(
        median(recorder.durations_us("engine.finish", r.phase_span)) / 1e3);
    std::uint64_t max_shard = 0;
    for (const auto& sh : r.stats.shards) max_shard = std::max(max_shard, sh.records);
    skew.push_back(static_cast<double>(max_shard) *
                   static_cast<double>(r.stats.shards.size()) /
                   static_cast<double>(r.stats.records_processed));
  });

  // Reference rate, traced; then the rest of the ladder untraced, stopping
  // at the first rate that fails.
  std::vector<LadderStep> ladder;
  tracing(true);
  const EngineRun ref = run_engine(est, in, in.stream.ladder.front(), oracle);
  tracing(false);
  check_run(ref, oracle, "traced reference-rate run", report);
  const auto step_of = [](const EngineRun& r) {
    return LadderStep{r.rate, percentile(r.latency_us, 0.99),
                      percentile_supported(r.latency_us.size(), 0.99),
                      r.end_lag_us,
                      r.offered - std::min(r.offered, r.stats.records_processed),
                      static_cast<double>(r.offered) / r.wall_s};
  };
  ladder.push_back(step_of(ref));
  print_run("ladder", ref);
  for (std::size_t k = 1; k < in.stream.ladder.size() && step_passes(ladder.back());
       ++k) {
    const EngineRun r = run_engine(est, in, in.stream.ladder[k], oracle);
    check_run(r, oracle, "ladder run", report);
    ladder.push_back(step_of(r));
    print_run("ladder", r);
  }

  tracing(true);
  const LayerTimes layers = run_layers(est, oracle.sample_logs,
                                       oracle.sample_clients, in.stream.alerts,
                                       in.train.front());
  tracing(false);

  const auto span_mean = [&](const char* name) {
    const std::vector<double> d = recorder.durations_us(name, ref.phase_span);
    double sum = 0.0;
    for (double x : d) sum += x;
    return d.empty() ? 0.0 : sum / static_cast<double>(d.size());
  };
  const std::vector<double> watermark_us =
      recorder.durations_us("alert.on_watermark", ref.phase_span);
  report.check(percentile_supported(watermark_us.size(), 0.9),
               "too few watermarks for an on_watermark p90");
  const double transitions = static_cast<double>(ref.stats.verdict_transitions);
  const double suppressed = static_cast<double>(ref.stats.verdicts_suppressed);

  report.metric("engine.ingest_batch.ns_per_record", median(ingest_ns), "ns");
  report.metric("engine.ingest_batch.p99_us",
                percentile(recorder.durations_us("engine.ingest_batch",
                                                 ref.phase_span),
                           0.99),
                "us");
  report.metric("engine.finish_ms", median(finish_ms), "ms");
  report.metric("engine.queue_high_water",
                static_cast<double>(ref.stats.max_queue_high_water), "msgs");
  report.metric("engine.shard_skew", median(skew), "ratio");
  report.metric("engine.interned_clients",
                static_cast<double>(ref.stats.interned_clients), "count");
  report.metric("core.monitor.ns_per_record",
                per_record_ns(oracle.monitor_s, in.feed.size()), "ns");
  report.metric("core.monitor.advance_time_p90_us",
                percentile(oracle.advance_us, 0.9), "us");
  report.metric("core.accumulator.observe_ns", layers.observe_ns, "ns");
  report.metric("core.accumulator.snapshot_ns", layers.snapshot_ns, "ns");
  report.metric("core.extract_features_us", layers.extract_us, "us");
  report.metric("ml.load_ms", median(load_ms.raw), "ms");
  report.metric("ml.predict_into_ns", layers.predict_into_ns, "ns");
  report.metric("ml.predict_batch.rows_per_s", layers.predict_batch_rows_per_s,
                "1/s");
  report.metric("ml.fit.columns_s", layers.fit_columns_s, "s");
  report.metric("ml.fit.trees_wall_s", layers.fit_trees_wall_s, "s");
  report.metric("alert.on_provisional_ns", layers.on_provisional_ns, "ns");
  report.metric("alert.on_session_ns", span_mean("alert.on_session") * 1e3, "ns");
  report.metric("alert.on_watermark_p90_us", percentile(watermark_us, 0.9),
                "us");
  report.metric("alert.on_finish_ms", span_mean("alert.on_finish") / 1e3, "ms");
  report.metric("alert.transition_ratio",
                transitions / std::max(1.0, transitions + suppressed), "ratio");
  report.metric("alert.tracked_locations",
                static_cast<double>(ref.tracked_locations), "count");
  report.metric("telemetry.tick_us", span_mean("telemetry.tick"), "us");
  report.metric("telemetry.poll_us", span_mean("telemetry.poll"), "us");
  report.metric("telemetry.wire_bytes_per_interval",
                static_cast<double>(ref.interval_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(ref.intervals, 1)),
                "B");
  report.metric("loadgen.lag_p99_us", percentile(ref.lag_us, 0.99), "us");
  report.metric("loadgen.sustained_rps", sustained_rate(ladder), "1/s");
  report.metric("trace.overhead_frac",
                1.0 - median(traced_rate) / median(plain_rate), "fraction");

  recorder.print_summary();
  if (!opt.trace_file.empty()) {
    report.check(recorder.write_chrome_json(opt.trace_file),
                 "writing the span file " + opt.trace_file);
    std::printf("spans written to %s\n", opt.trace_file.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.self_test) {
    const int failures = self_test();
    std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  std::printf("droppkt_benchmark: workload %s, seed %llu, %.0f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Report report;
  SpanRecorder recorder;
  {
    const WorkDir work_dir(opt.work_dir);
    try {
      const std::int64_t t0 = now_ns();
      const Inputs in = make_inputs(opt.workload, opt.seed);
      std::printf("inputs: %zu feed records, %zu service model(s), generated "
                  "in %.2f s\n",
                  in.feed.size(), in.services.size(),
                  static_cast<double>(now_ns() - t0) / 1e9);
      if (opt.trace) {
        traced(in, opt, work_dir.path(), recorder, report);
      } else if (in.streaming) {
        streaming_end_to_end(in, opt, work_dir.path(), report);
      } else {
        offline_end_to_end(in, opt, work_dir.path(), report);
      }
    } catch (const std::exception& e) {
      report.fail(1, std::string("exception: ") + e.what());
    }
  }
  SpanRecorder::install(nullptr);
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
