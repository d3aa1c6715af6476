// Detection latency vs false-alarm rate for the streaming alerting
// subsystem (src/alert/), against ground-truth incident injection.
//
// Not a paper figure: this measures the operator product the paper's
// introduction motivates ("identify parts of the network that
// underperform in a lightweight manner") built on top of the provisional
// in-flight estimates. An incident feed degrades a known subset of
// locations at a known feed time; the full engine + alert pipeline runs
// over it at several hysteresis/confidence settings, and we score:
//
//   - location detection latency: seconds from incident start to the
//     first raised alert on each degraded location, and how many degraded
//     sessions had begun by then ("sessions into the incident");
//   - false alarms: raise events on locations that were never degraded;
//   - session verdict lead: how many seconds before a session's end its
//     stable (hysteresis-filtered) verdict first appeared.
//
// A determinism gate then replays one setting at 1/2/4 engine shards and
// requires the alert event sequence — every id, location, time and
// evidence float — to be byte-identical; any divergence exits non-zero.
//
//   bench_alerting           full sweep, writes BENCH_alerting.json
//   bench_alerting --smoke   small feed, no JSON — CI runs the same
//                            pipeline + determinism gate in seconds
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "alert/pipeline.hpp"
#include "bench_common.hpp"
#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"

namespace {

using namespace droppkt;

struct Setting {
  std::size_t hysteresis_k = 3;
  double min_confidence = 0.5;
};

struct RunResult {
  // Canonical serialization of the full alert + transition sequence (the
  // determinism gate compares these byte-for-byte).
  std::string canonical;
  std::vector<alert::AlertEvent> log;
  engine::AlertCounts counts;
  /// First raise time per location, from the log.
  std::map<std::string, double> first_raise_s;
  /// (transition time, session end) pairs for matched first verdicts.
  double verdict_lead_sum_s = 0.0;
  std::size_t verdict_lead_n = 0;
};

alert::AlertPipelineConfig pipeline_config(const Setting& s) {
  alert::AlertPipelineConfig cfg;
  cfg.filter.hysteresis_k = s.hysteresis_k;
  cfg.filter.min_confidence = s.min_confidence;
  cfg.detector.window = alert::WindowKind::kDecay;
  cfg.detector.half_life_s = 600.0;
  cfg.detector.alert_rate = 0.5;
  cfg.detector.min_effective_sessions = 5.0;
  cfg.manager.defaults.raise_rate = 0.5;
  cfg.manager.defaults.clear_rate = 0.35;
  cfg.manager.defaults.clear_cooldown_s = 300.0;
  return cfg;
}

RunResult run_once(const core::QoeEstimator& estimator,
                   const engine::Feed& feed,
                   const engine::IncidentGroundTruth& truth,
                   const Setting& setting, std::size_t shards) {
  // Scheduled sessions per client, feed order, for verdict-lead matching.
  std::map<std::string, std::vector<const engine::ScheduledSession*>>
      by_client;
  for (const auto& s : truth.sessions) by_client[s.client].push_back(&s);

  RunResult res;
  std::string canon;
  alert::AlertPipelineConfig pcfg = pipeline_config(setting);
  std::map<std::string, double> first_transition_s;  // client -> time
  pcfg.on_transition = [&](const alert::VerdictTransition& t,
                           const std::string& location) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "T|%s|%s|%d|%d|%.17g|%.17g|%d\n",
                  t.client.c_str(), location.c_str(), t.from_class,
                  t.to_class, t.time_s, t.prev_time_s,
                  t.final_verdict ? 1 : 0);
    canon += buf;
    first_transition_s.try_emplace(t.client, t.time_s);
  };
  alert::AlertPipeline pipeline(pcfg);

  engine::EngineConfig ecfg;
  ecfg.num_shards = shards;
  ecfg.monitor.client_idle_timeout_s = 120.0;
  ecfg.monitor.provisional_every = 4;
  ecfg.watermark_interval_s = 15.0;
  ecfg.alert_sink = &pipeline;
  engine::IngestEngine eng(estimator, [](const core::MonitoredSessionView&) {},
                           ecfg);
  eng.ingest_batch(feed);
  eng.finish();

  res.log = pipeline.log_snapshot();
  res.counts = pipeline.counts();
  for (const auto& ev : res.log) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "A|%llu|%d|%s|%.17g|%.17g|%.17g|%.17g\n",
                  static_cast<unsigned long long>(ev.id),
                  ev.kind == alert::AlertEvent::Kind::kRaised ? 1 : 0,
                  ev.location.c_str(), ev.time_s, ev.rate_low, ev.rate_high,
                  ev.effective_sessions);
    canon += buf;
    if (ev.kind == alert::AlertEvent::Kind::kRaised) {
      res.first_raise_s.try_emplace(ev.location, ev.time_s);
    }
  }
  res.canonical = std::move(canon);

  // Session verdict lead: a client's first stable verdict vs the end of
  // the scheduled session that was playing at that moment.
  for (const auto& [client, t] : first_transition_s) {
    const auto it = by_client.find(client);
    if (it == by_client.end()) continue;
    for (const auto* sched : it->second) {
      if (t >= sched->start_s && t <= sched->end_s) {
        res.verdict_lead_sum_s += sched->end_s - t;
        ++res.verdict_lead_n;
        break;
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header(
      "Streaming alerting: detection latency vs false alarms",
      "operator use case (Section 1: lightweight network monitoring); "
      "no paper figure");

  core::DatasetConfig dcfg;
  dcfg.num_sessions = smoke ? 120 : 300;
  dcfg.seed = bench::kBenchSeed;
  core::QoeEstimator estimator;
  estimator.train(core::build_dataset(has::svc1_profile(), dcfg));

  engine::IncidentFeedConfig fcfg;
  fcfg.num_locations = smoke ? 6 : 12;
  fcfg.degraded_locations = smoke ? 2 : 3;
  fcfg.clients_per_location = 6;
  fcfg.sessions_per_client = 3;
  fcfg.pool_sessions = smoke ? 10 : 24;
  fcfg.incident_start_s = smoke ? 600.0 : 1200.0;
  fcfg.seed = bench::kBenchSeed;
  engine::IncidentGroundTruth truth;
  const engine::Feed feed = engine::incident_feed(has::svc1_profile(), fcfg,
                                                  &truth);
  std::size_t degraded_sessions = 0;
  for (const auto& s : truth.sessions) degraded_sessions += s.degraded;
  std::printf("incident feed: %zu records, %zu locations (%zu degraded at "
              "t=%.0fs), %zu sessions (%zu degraded)\n\n",
              feed.size(), fcfg.num_locations, fcfg.degraded_locations,
              truth.incident_start_s, truth.sessions.size(),
              degraded_sessions);

  const std::vector<Setting> settings = {
      {1, 0.0}, {2, 0.45}, {3, 0.55}, {4, 0.65}};

  struct Row {
    Setting setting;
    std::size_t detected = 0;
    double latency_sum_s = 0.0;
    double sessions_into_sum = 0.0;
    std::size_t false_raises = 0;
    RunResult res;
  };
  std::vector<Row> rows;
  for (const auto& s : settings) {
    Row row;
    row.setting = s;
    row.res = run_once(estimator, feed, truth, s, /*shards=*/2);
    for (const auto& loc : truth.degraded_locations) {
      const auto it = row.res.first_raise_s.find(loc);
      if (it == row.res.first_raise_s.end()) continue;
      ++row.detected;
      row.latency_sum_s += it->second - truth.incident_start_s;
      std::size_t into = 0;
      for (const auto& sess : truth.sessions) {
        if (sess.degraded && sess.location == loc &&
            sess.start_s <= it->second) {
          ++into;
        }
      }
      row.sessions_into_sum += static_cast<double>(into);
    }
    for (const auto& ev : row.res.log) {
      if (ev.kind != alert::AlertEvent::Kind::kRaised) continue;
      bool healthy = false;
      for (const auto& loc : truth.healthy_locations) {
        if (ev.location == loc) healthy = true;
      }
      if (healthy) ++row.false_raises;
    }
    rows.push_back(std::move(row));
  }

  std::printf("k   conf   detected   latency(s)   sessions-in   "
              "false-raises   transitions   suppressed\n");
  for (const auto& r : rows) {
    const double n = static_cast<double>(r.detected ? r.detected : 1);
    std::printf("%zu  %4.2f   %4zu/%zu   %10.1f   %11.1f   %12zu   "
                "%11llu   %10llu\n",
                r.setting.hysteresis_k, r.setting.min_confidence, r.detected,
                truth.degraded_locations.size(), r.latency_sum_s / n,
                r.sessions_into_sum / n, r.false_raises,
                static_cast<unsigned long long>(r.res.counts.transitions),
                static_cast<unsigned long long>(r.res.counts.suppressed));
  }

  // ---- Determinism gate: the alert sequence must be byte-identical for
  // any shard count. ----
  const Setting gate = settings[2];
  bool identical = true;
  const RunResult ref = run_once(estimator, feed, truth, gate, 1);
  for (const std::size_t shards : {2u, 4u}) {
    const RunResult got = run_once(estimator, feed, truth, gate, shards);
    if (got.canonical != ref.canonical) {
      identical = false;
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: %zu-shard alert sequence differs "
                   "from 1-shard\n",
                   shards);
      // First differing line, for debugging.
      std::size_t i = 0;
      while (i < ref.canonical.size() && i < got.canonical.size() &&
             ref.canonical[i] == got.canonical[i]) {
        ++i;
      }
      std::fprintf(stderr, "  first divergence at byte %zu\n", i);
    }
  }
  std::printf("\ndeterminism gate (k=%zu conf=%.2f, shards 1/2/4): %s "
              "(%zu alert events, %llu transitions)\n",
              gate.hysteresis_k, gate.min_confidence,
              identical ? "IDENTICAL" : "DIVERGED", ref.log.size(),
              static_cast<unsigned long long>(ref.counts.transitions));
  if (!identical) return 1;

  if (!smoke) {
    std::ofstream json("BENCH_alerting.json");
    json << "{\n  \"bench\": \"alerting\",\n";
    json << "  \"records\": " << feed.size() << ",\n";
    json << "  \"locations\": " << fcfg.num_locations << ",\n";
    json << "  \"degraded_locations\": " << truth.degraded_locations.size()
         << ",\n";
    json << "  \"incident_start_s\": " << truth.incident_start_s << ",\n";
    json << "  \"sessions\": " << truth.sessions.size() << ",\n";
    json << "  \"degraded_sessions\": " << degraded_sessions << ",\n";
    json << "  \"settings\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      const double n = static_cast<double>(r.detected ? r.detected : 1);
      const double lead =
          r.res.verdict_lead_n
              ? r.res.verdict_lead_sum_s /
                    static_cast<double>(r.res.verdict_lead_n)
              : 0.0;
      json << "    {\"hysteresis_k\": " << r.setting.hysteresis_k
           << ", \"min_confidence\": " << r.setting.min_confidence
           << ", \"detected\": " << r.detected
           << ", \"mean_detection_latency_s\": " << r.latency_sum_s / n
           << ", \"mean_sessions_into_incident\": "
           << r.sessions_into_sum / n
           << ", \"false_alarm_raises\": " << r.false_raises
           << ", \"healthy_locations\": " << truth.healthy_locations.size()
           << ", \"mean_verdict_lead_s\": " << lead
           << ", \"transitions\": " << r.res.counts.transitions
           << ", \"suppressed\": " << r.res.counts.suppressed << "}"
           << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json << "  ],\n";
    json << "  \"determinism\": {\"shards\": [1, 2, 4], \"identical\": "
         << (identical ? "true" : "false") << "}\n}\n";
    std::printf("wrote BENCH_alerting.json\n");
  }
  return 0;
}
