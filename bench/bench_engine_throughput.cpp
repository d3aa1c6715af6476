// Carrier-scale ingest throughput of the batched, interned engine hot
// path, with its determinism gates.
//
// Not a paper figure: this measures the deployment-scale subsystem the
// paper's "cheap enough to run at ISP scale" pitch implies. Two things
// are established per run:
//
//   1. A records/s curve over {1,2,4} shards x {1,32,256} records per
//      IngestEngine::ingest_batch() call (batch 1: one-record spans).
//   2. Determinism gates: every engine combination, and every lap of the
//      telemetry-overhead pairs, must report the byte-identical session
//      set and alert event sequence of the first combination (1 shard,
//      one-record spans), through an attached alert::AlertPipeline whose
//      alert log must not be empty. Whether the engine reproduces the paper's
//      batch pipeline at all is checked by the reference oracle test
//      (tests/integration/reference_oracle_test.cpp); this bench checks
//      that sharding and batching change nothing at carrier scale.
//
// The identity gates always hard-fail, as does the telemetry drop gate
// (the interval streamer's bounded frame queue must shed nothing in the
// default configuration). The <=2% telemetry streaming-overhead gate, on
// the median paired overhead of 8 baseline/streaming pairs (within a pair
// the two sides' laps alternate, odd pairs leading with streaming, until
// each side has measured at least 3 s), is enforced in full runs and only
// reported under --smoke (CI containers share cores; one sub-second smoke
// lap per side is too noisy to gate).
//
// Usage:
//   bench_engine_throughput          full run, writes BENCH_engine.json
//                                    to the cwd
//   bench_engine_throughput --smoke  100-client feed, no JSON — CI runs
//                                    every gate but the overhead bound
//
// Feed size defaults to ~960k records from 2k clients (240-connection
// sessions, a ~10-minute video session each); scale with e.g.
//   DROPPKT_ENGINE_CLIENTS=20000 ./bench_engine_throughput
// Shard speedup requires physical cores; the identity gates do not.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alert/pipeline.hpp"
#include "bench_common.hpp"
#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/streamer.hpp"
#include "util/stats.hpp"
#include "util/string_pool.hpp"

namespace {

using namespace droppkt;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const auto parsed = std::strtoull(v, nullptr, 10);
  if (parsed == 0) {
    std::fprintf(stderr, "[bench] ignoring %s='%s' (not a positive integer)\n",
                 name, v);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

// Deterministic coarse location mapping so the alert pipeline aggregates
// the synthetic per-subscriber feed into a manageable location set.
std::string bench_location_of(std::string_view client) {
  return "loc-" + std::to_string(util::well_mixed_hash(client) % 64);
}

std::string session_line(std::string_view client, std::size_t txns,
                         int predicted, double confidence, double start_s,
                         double end_s, double detected_s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.*s|%zu|%d|%.17g|%.17g|%.17g|%.17g",
                static_cast<int>(client.size()), client.data(), txns,
                predicted, confidence, start_s, end_s, detected_s);
  return buf;
}

/// Sorted multiset of session lines — emission order across clients is the
/// one thing sharding is allowed to change.
std::string canonical_sessions(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Alert events in sequence — the pipeline guarantees the *order* too.
std::string canonical_alerts(const std::vector<alert::AlertEvent>& log) {
  std::string out;
  char buf[256];
  for (const auto& e : log) {
    std::snprintf(buf, sizeof(buf), "%s|%llu|%s|%.17g|%.17g|%.17g|%.17g\n",
                  e.kind == alert::AlertEvent::Kind::kRaised ? "R" : "C",
                  static_cast<unsigned long long>(e.id), e.location.c_str(),
                  e.time_s, e.rate_low, e.rate_high, e.effective_sessions);
    out += buf;
  }
  return out;
}

struct RunResult {
  double seconds = 0.0;
  double records_per_s = 0.0;
  std::uint64_t sessions = 0;
  std::string session_canon;
  std::string alert_canon;
  std::size_t alert_events = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t tm_intervals = 0;
  std::uint64_t tm_dropped = 0;
  std::size_t tm_bytes = 0;
};

RunResult run_engine(const core::QoeEstimator& estimator,
                     const engine::Feed& feed, std::size_t shards,
                     std::size_t batch, const engine::EngineConfig& base,
                     const alert::AlertPipelineConfig& pcfg,
                     bool stream_telemetry = false) {
  RunResult result;
  alert::AlertPipeline pipeline(pcfg);
  std::vector<std::string> lines;
  engine::EngineConfig ecfg = base;
  ecfg.num_shards = shards;
  ecfg.alert_sink = &pipeline;
  telemetry::MetricRegistry registry;
  if (stream_telemetry) ecfg.registry = &registry;

  const auto t0 = std::chrono::steady_clock::now();
  {
    engine::IngestEngine eng(
        estimator,
        [&](const core::MonitoredSessionView& s) {
          // Serialized by the engine's sink mutex. Counts come off the
          // interned records — materialization is off for this run.
          lines.push_back(session_line(s.client, s.records.size(),
                                       s.predicted_class, s.confidence,
                                       s.start_s, s.end_s, s.detected_s));
        },
        ecfg);
    // Live interval streaming, as a deployment runs it: a sampler thread
    // diffing the registry every 10 ms and draining the frame queue into
    // the wire buffer. The hot path never waits on it — tick() try_pushes
    // and drops on a full queue, so any interference shows up only as
    // cache/scheduler pressure, which is exactly what the <2% gate bounds.
    std::optional<telemetry::IntervalStreamer> streamer;
    std::vector<std::uint8_t> wire;
    std::atomic<bool> sampler_done{false};
    std::thread sampler;
    if (stream_telemetry) {
      streamer.emplace(registry, telemetry::monotonic_clock());
      wire = streamer->header_frame();
      sampler = std::thread([&] {
        while (!sampler_done.load(std::memory_order_acquire)) {
          eng.refresh_gauges();
          streamer->tick();
          streamer->poll(wire);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        eng.refresh_gauges();
        streamer->tick();
        streamer->poll(wire);
      });
    }
    for (std::size_t i = 0; i < feed.size(); i += batch) {
      const std::size_t n = std::min(batch, feed.size() - i);
      eng.ingest_batch(
          std::span<const engine::FeedRecord>(feed.data() + i, n));
    }
    eng.finish();
    // The clock stops once the engine has drained: stopping the sampler
    // (up to one 10 ms sleep, then a last tick) is not ingest time, and
    // on a ~0.35 s lap it would read as streaming overhead.
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (stream_telemetry) {
      sampler_done.store(true, std::memory_order_release);
      sampler.join();
      result.tm_intervals = streamer->intervals_sampled();
      result.tm_dropped = streamer->dropped_intervals();
      result.tm_bytes = wire.size();
    }
    const auto snap = eng.stats();
    result.p50_us = snap.latency_p50_us;
    result.p99_us = snap.latency_p99_us;
  }
  result.records_per_s = static_cast<double>(feed.size()) / result.seconds;
  result.sessions = lines.size();
  result.session_canon = canonical_sessions(std::move(lines));
  const auto log = pipeline.log_snapshot();
  result.alert_events = log.size();
  result.alert_canon = canonical_alerts(log);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header(
      "Carrier-scale ingest: batched/interned engine throughput and identity",
      "deployment subsystem (no paper figure); Section 6 motivates "
      "ISP-scale operation");
  const unsigned hardware_concurrency = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", hardware_concurrency);

  core::DatasetConfig cfg;
  cfg.num_sessions = smoke ? 120 : 300;
  cfg.seed = bench::kBenchSeed;
  core::QoeEstimator estimator;
  estimator.train(core::build_dataset(has::svc1_profile(), cfg));

  engine::SynthFeedConfig feed_cfg;
  feed_cfg.num_clients =
      env_size("DROPPKT_ENGINE_CLIENTS", smoke ? 100 : 2000);
  // Long video sessions: at the feed's ~2.5 s chunk cadence, 240
  // connections is a ~10-minute adaptive-streaming session — the paper's
  // workload shape. The incremental boundary scan keeps the per-record
  // cost O(burst) however long the pending window grows; short
  // beacon-like sessions would never exercise that.
  feed_cfg.txns_per_session = 240;
  feed_cfg.seed = bench::kBenchSeed;
  const auto t_gen = std::chrono::steady_clock::now();
  engine::Feed feed = engine::synthetic_feed(feed_cfg);
  // Starve a deterministic subset of subscribers (hash-selected, ~1 in 8)
  // so the forest emits a mix of QoE classes: without low-QoE verdicts the
  // alert identity gate would compare two empty logs.
  for (auto& r : feed) {
    if (util::well_mixed_hash(r.client) % 8 == 0) r.txn.dl_bytes *= 0.02;
  }
  const double gen_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_gen)
          .count();
  std::printf(
      "synthetic feed: %zu records, %zu clients (generated in %.1f s)%s\n\n",
      feed.size(), feed_cfg.num_clients, gen_s, smoke ? "  [smoke]" : "");

  engine::EngineConfig base;
  base.queue_capacity = 8192;
  // The alert pipeline never reads transaction contents, and the session
  // canon above only needs counts — run the engine's emit path fully
  // allocation-free (no per-record string materialization).
  base.monitor.materialize_transactions = false;
  alert::AlertPipelineConfig pcfg;
  pcfg.location_of = bench_location_of;
  // Aggressive detection so the synthetic (mostly healthy) feed produces a
  // non-empty alert sequence — the identity gate should compare real
  // events, not two empty logs. The manager's raise/clear rates must come
  // down with the detector's: at their defaults no location ever raises.
  pcfg.detector.alert_rate = 0.05;
  pcfg.detector.min_effective_sessions = 2.0;
  pcfg.manager.defaults.raise_rate = 0.05;
  pcfg.manager.defaults.clear_rate = 0.02;

  struct CurveRow {
    std::size_t shards;
    std::size_t batch;
    RunResult r;
  };
  std::vector<CurveRow> rows;
  std::printf("shards  batch   records/s   sessions   alerts   p50 us    "
              "p99 us\n");
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t batch : {1u, 32u, 256u}) {
      CurveRow row{shards, batch,
                   run_engine(estimator, feed, shards, batch, base, pcfg)};
      std::printf("%6zu %6zu  %10.0f  %9llu  %7zu  %8.1f  %8.1f\n",
                  row.shards, row.batch, row.r.records_per_s,
                  static_cast<unsigned long long>(row.r.sessions),
                  row.r.alert_events, row.r.p50_us, row.r.p99_us);
      rows.push_back(std::move(row));
    }
  }
  // The identity reference: 1 shard, one-record spans.
  const RunResult& first = rows.front().r;
  const auto same_as_first = [&first](const RunResult& r) {
    return r.session_canon == first.session_canon &&
           r.alert_canon == first.alert_canon;
  };

  // Telemetry overhead: the same engine configuration with a live
  // interval streamer attached (external registry, 10 ms sampling thread)
  // against one without, as baseline/streaming pairs, and the gate reads
  // the median paired overhead. A lap is one fresh engine over the whole
  // feed, held to the identity reference. Within a pair, baseline and
  // streaming laps alternate until each side has measured at least 3 s,
  // so both sides see the same stretch of the machine's drift; odd pairs
  // lead with a streaming lap, so an order effect (heap state, clock
  // frequency, caches) favours each side in half the pairs. One ~0.3 s
  // lap per side measured host noise (8-pair medians from -5.7% to +8.2%
  // with no code change). The <2% gate is enforced in full runs only;
  // smoke runs one lap per side. The drop gate is unconditional: at the
  // default queue depth with a live consumer, the bounded frame queue must
  // never shed an interval.
  const double tm_min_side_seconds = smoke ? 0.0 : 3.0;
  const std::size_t tm_shards = 2;
  const std::size_t tm_batch = 256;
  const int tm_pairs = smoke ? 1 : 8;
  struct TmSide {
    double seconds = 0.0;
    std::size_t laps = 0;
  };
  const auto records_per_s = [&feed](const TmSide& side) {
    return static_cast<double>(side.laps * feed.size()) / side.seconds;
  };
  std::vector<double> tm_base_rps;
  std::vector<double> tm_tele_rps;
  std::vector<double> tm_paired;
  // Seconds measured per pair: baseline, streaming.
  std::vector<std::pair<double, double>> tm_side_seconds;
  RunResult tm_tele;  // the last streaming lap
  std::size_t tm_laps = 0;
  std::uint64_t tm_dropped_total = 0;
  bool tm_identical = true;
  const auto run_lap = [&](TmSide& side, bool stream_telemetry) {
    RunResult r = run_engine(estimator, feed, tm_shards, tm_batch, base,
                             pcfg, stream_telemetry);
    side.seconds += r.seconds;
    ++side.laps;
    ++tm_laps;
    tm_dropped_total += r.tm_dropped;
    tm_identical = tm_identical && same_as_first(r);
    if (stream_telemetry) tm_tele = std::move(r);
  };
  std::printf("\ntelemetry overhead (%zu shards, batch %zu, median of %d "
              "pairs, laps alternating, at least %.0f s per side)...\n",
              tm_shards, tm_batch, tm_pairs, tm_min_side_seconds);
  for (int pair = 0; pair < tm_pairs; ++pair) {
    const bool streaming_first = pair % 2 == 1;
    TmSide b;
    TmSide t;
    do {
      if (streaming_first) run_lap(t, /*stream_telemetry=*/true);
      run_lap(b, /*stream_telemetry=*/false);
      if (!streaming_first) run_lap(t, /*stream_telemetry=*/true);
    } while (b.seconds < tm_min_side_seconds ||
             t.seconds < tm_min_side_seconds);
    tm_base_rps.push_back(records_per_s(b));
    tm_tele_rps.push_back(records_per_s(t));
    tm_paired.push_back(1.0 - tm_tele_rps.back() / tm_base_rps.back());
    tm_side_seconds.emplace_back(b.seconds, t.seconds);
    std::printf("  pair %d (%s first): %10.0f / %10.0f records/s, %zu laps "
                "each (%.1f / %.1f s), overhead %+.2f%%\n",
                pair + 1, streaming_first ? "streaming" : "baseline",
                tm_base_rps.back(), tm_tele_rps.back(), b.laps, b.seconds,
                t.seconds, tm_paired.back() * 100.0);
  }
  const double tm_overhead = util::median(tm_paired);
  const bool gate_tm = tm_overhead <= 0.02;
  const bool gate_tm_drops = tm_dropped_total == 0;
  std::printf("without streamer: %10.0f records/s (median)\n",
              util::median(tm_base_rps));
  std::printf("with streamer:    %10.0f records/s (median; last lap %llu "
              "intervals, %zu wire bytes, %llu dropped)\n",
              util::median(tm_tele_rps),
              static_cast<unsigned long long>(tm_tele.tm_intervals),
              tm_tele.tm_bytes,
              static_cast<unsigned long long>(tm_tele.tm_dropped));
  std::printf("streaming overhead: %.2f%% median paired (gate: <= 2%%, "
              "%s%s); dropped intervals across %zu laps: %llu (gate: == 0, "
              "%s)\n",
              tm_overhead * 100.0, gate_tm ? "PASS" : "FAIL",
              smoke ? ", not enforced in smoke mode" : "", tm_laps,
              static_cast<unsigned long long>(tm_dropped_total),
              gate_tm_drops ? "PASS" : "FAIL");

  // Identity gates: one session multiset, one alert sequence, everywhere.
  bool sessions_identical = tm_identical;
  bool alerts_identical = tm_identical;
  for (const auto& row : rows) {
    if (row.r.session_canon != first.session_canon) sessions_identical = false;
    if (row.r.alert_canon != first.alert_canon) alerts_identical = false;
  }
  const bool alerts_present = first.alert_events > 0;
  std::printf("\nidentity: sessions %s, alert sequence %s (%zu events) — all "
              "9 combos and %zu telemetry laps vs 1 shard, one-record "
              "spans\n",
              sessions_identical ? "IDENTICAL" : "DIVERGED",
              alerts_identical ? "IDENTICAL" : "DIVERGED", first.alert_events,
              tm_laps);

  if (!smoke) {
    std::ofstream json("BENCH_engine.json");
    json << "{\n  \"bench\": \"engine_throughput\",\n";
    json << "  \"hardware_concurrency\": " << hardware_concurrency << ",\n";
    json << "  \"records\": " << feed.size() << ",\n";
    json << "  \"clients\": " << feed_cfg.num_clients << ",\n";
    json << "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      json << "    {\"shards\": " << row.shards << ", \"batch\": " << row.batch
           << ", \"seconds\": " << row.r.seconds
           << ", \"records_per_s\": " << row.r.records_per_s
           << ", \"sessions\": " << row.r.sessions
           << ", \"latency_p50_us\": " << row.r.p50_us
           << ", \"latency_p99_us\": " << row.r.p99_us << "}"
           << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json << "  ],\n";
    json << "  \"identity\": {\"sessions_identical\": "
         << (sessions_identical ? "true" : "false")
         << ", \"alerts_identical\": " << (alerts_identical ? "true" : "false")
         << ", \"alert_events\": " << first.alert_events << "},\n";
    json << "  \"telemetry\": {\"pairs\": " << tm_pairs
         << ", \"paired_overheads\": [";
    for (std::size_t i = 0; i < tm_paired.size(); ++i) {
      json << (i ? ", " : "") << tm_paired[i];
    }
    json << "], \"side_seconds\": [";
    for (std::size_t i = 0; i < tm_side_seconds.size(); ++i) {
      json << (i ? ", " : "") << "[" << tm_side_seconds[i].first << ", "
           << tm_side_seconds[i].second << "]";
    }
    json << "], \"min_side_seconds\": " << tm_min_side_seconds
         << ", \"baseline_records_per_s\": " << util::median(tm_base_rps)
         << ", \"streaming_records_per_s\": " << util::median(tm_tele_rps)
         << ", \"overhead\": " << tm_overhead
         << ", \"intervals\": " << tm_tele.tm_intervals
         << ", \"wire_bytes\": " << tm_tele.tm_bytes
         << ", \"dropped_intervals\": " << tm_dropped_total
         << ", \"gate_2pct_pass\": " << (gate_tm ? "true" : "false")
         << ", \"gate_drops_pass\": " << (gate_tm_drops ? "true" : "false")
         << "}\n";
    json << "}\n";
    std::printf("\nwrote BENCH_engine.json\n");
  }

  if (!sessions_identical || !alerts_identical) {
    std::fprintf(stderr,
                 "[bench] FAIL: a batched/sharded run diverged from the "
                 "1-shard one-record-span run\n");
    return 1;
  }
  if (!alerts_present) {
    std::fprintf(stderr,
                 "[bench] FAIL: the alert log is empty, so the alert "
                 "identity gate compared nothing\n");
    return 1;
  }
  if (!gate_tm_drops) {
    std::fprintf(stderr,
                 "[bench] FAIL: telemetry frame queue dropped %llu "
                 "intervals in the default configuration\n",
                 static_cast<unsigned long long>(tm_dropped_total));
    return 1;
  }
  if (!smoke && !gate_tm) {
    std::fprintf(stderr,
                 "[bench] FAIL: telemetry streaming overhead %.2f%% above "
                 "the 2%% gate\n",
                 tm_overhead * 100.0);
    return 1;
  }
  return 0;
}
