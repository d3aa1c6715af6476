// droppkt_replay — feed record/replay driver.
//
//   droppkt_replay record --out FILE [--locations N] [--degraded N]
//                         [--clients N] [--sessions N] [--seed S]
//                         [--incident-start S]
//     Generate a deterministic incident feed and write it to FILE as
//     feed lines (engine::write_feed), one line per proxy record.
//
//   droppkt_replay run --in FILE [--shards N] [--time-scale X]
//                      [--batch N] [--alerts-out FILE]
//     Replay a feed-line file through a fresh engine + alert pipeline at
//     line rate (default) or paced by --time-scale, then print the
//     canonical alert sequence. For a fixed feed the alert output is
//     byte-identical for ANY --shards, --batch and --time-scale — that
//     invariant is what the CI record/replay round-trip gates.
//
// Rejected input (an unreadable file, a malformed feed line) prints
// "error: <what>" to stderr and exits 1.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "engine/replay.hpp"
#include "has/service_profile.hpp"

namespace {

using namespace droppkt;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: droppkt_replay record --out FILE [--locations N] "
               "[--degraded N] [--clients N] [--sessions N] [--seed S] "
               "[--incident-start S]\n"
               "       droppkt_replay run --in FILE [--shards N] "
               "[--time-scale X] [--batch N] [--alerts-out FILE]\n");
  std::exit(2);
}

double arg_double(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  return std::strtod(argv[++i], nullptr);
}

std::uint64_t arg_u64(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  return std::strtoull(argv[++i], nullptr, 10);
}

std::string arg_str(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  return argv[++i];
}

int cmd_record(int argc, char** argv) {
  std::string out;
  engine::IncidentFeedConfig fcfg;
  fcfg.num_locations = 6;
  fcfg.degraded_locations = 2;
  fcfg.clients_per_location = 6;
  fcfg.sessions_per_client = 3;
  fcfg.incident_start_s = 600.0;
  fcfg.seed = 1000;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out") out = arg_str(argc, argv, i);
    else if (a == "--locations") fcfg.num_locations = arg_u64(argc, argv, i);
    else if (a == "--degraded")
      fcfg.degraded_locations = arg_u64(argc, argv, i);
    else if (a == "--clients")
      fcfg.clients_per_location = arg_u64(argc, argv, i);
    else if (a == "--sessions")
      fcfg.sessions_per_client = arg_u64(argc, argv, i);
    else if (a == "--seed") fcfg.seed = arg_u64(argc, argv, i);
    else if (a == "--incident-start")
      fcfg.incident_start_s = arg_double(argc, argv, i);
    else usage();
  }
  if (out.empty()) usage();

  engine::IncidentGroundTruth truth;
  const engine::Feed feed =
      engine::incident_feed(has::svc1_profile(), fcfg, &truth);
  std::ofstream os(out);
  engine::write_feed(feed, os);
  os.close();
  if (!os) throw std::runtime_error("cannot write " + out);

  std::printf("recorded %zu records (%zu sessions, incident at %.0fs "
              "across %zu/%zu locations) -> %s\n",
              feed.size(), truth.sessions.size(),
              truth.incident_start_s, truth.degraded_locations.size(),
              truth.degraded_locations.size() +
                  truth.healthy_locations.size(),
              out.c_str());
  return 0;
}

int cmd_run(int argc, char** argv) {
  std::string in;
  std::string alerts_out;
  engine::ReplayConfig rcfg;
  std::size_t shards = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--in") in = arg_str(argc, argv, i);
    else if (a == "--shards") shards = arg_u64(argc, argv, i);
    else if (a == "--time-scale") rcfg.time_scale = arg_double(argc, argv, i);
    else if (a == "--batch") rcfg.batch = arg_u64(argc, argv, i);
    else if (a == "--alerts-out") alerts_out = arg_str(argc, argv, i);
    else usage();
  }
  if (in.empty()) usage();

  std::ifstream is(in);
  if (!is) throw std::runtime_error("cannot open " + in);
  const engine::Feed feed = engine::read_feed(is);

  // Fixed-seed estimator: every `run` of the same binary trains the
  // identical forest, so replay output depends only on the feed.
  core::DatasetConfig dcfg;
  dcfg.num_sessions = 600;
  dcfg.seed = 41;
  core::QoeEstimator estimator;
  estimator.train(core::build_dataset(has::svc1_profile(), dcfg));

  alert::AlertPipelineConfig acfg;
  acfg.filter.hysteresis_k = 3;
  acfg.filter.min_confidence = 0.5;
  acfg.detector.half_life_s = 600.0;
  acfg.detector.min_effective_sessions = 4.0;
  acfg.detector.alert_rate = 0.35;
  acfg.manager.defaults.raise_rate = 0.35;
  acfg.manager.defaults.clear_rate = 0.2;
  alert::AlertPipeline alerts(acfg);

  engine::EngineConfig ecfg;
  ecfg.num_shards = shards;
  ecfg.monitor.client_idle_timeout_s = 120.0;
  ecfg.monitor.provisional_every = 4;
  ecfg.watermark_interval_s = 15.0;
  ecfg.alert_sink = &alerts;
  engine::IngestEngine eng(
      estimator, [](const core::MonitoredSessionView&) {}, ecfg);

  const engine::ReplayStats rs = engine::replay_feed(feed, eng, rcfg);
  eng.finish();

  // Canonical alert sequence: one line per event, every float at full
  // round-trip precision — the byte-identity gate's comparison unit.
  std::string canon;
  char line[256];
  for (const auto& ev : alerts.log_snapshot()) {
    std::snprintf(line, sizeof(line), "%" PRIu64 " %s %s %.17g %.17g %.17g %.17g\n",
                  ev.id,
                  ev.kind == alert::AlertEvent::Kind::kRaised ? "RAISED"
                                                              : "CLEARED",
                  ev.location.c_str(), ev.time_s, ev.rate_low, ev.rate_high,
                  ev.effective_sessions);
    canon += line;
  }
  const auto snap = eng.stats();
  std::snprintf(line, sizeof(line),
                "final records=%" PRIu64 " late=%" PRIu64
                " sessions=%" PRIu64 " provisionals=%" PRIu64
                " transitions=%" PRIu64 " raised=%" PRIu64
                " cleared=%" PRIu64 "\n",
                snap.records_processed, snap.records_late,
                snap.sessions_reported,
                snap.provisionals_reported, snap.verdict_transitions,
                snap.alerts_raised, snap.alerts_cleared);
  canon += line;

  if (!alerts_out.empty()) {
    std::FILE* f = std::fopen(alerts_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "droppkt_replay: cannot open %s\n",
                   alerts_out.c_str());
      return 1;
    }
    std::fwrite(canon.data(), 1, canon.size(), f);
    std::fclose(f);
  } else {
    std::fputs(canon.c_str(), stdout);
  }
  std::printf("replayed %" PRIu64 " records / %" PRIu64
              " ticks spanning %.0fs of feed time in %.2fs wall "
              "(%zu shards, time scale %s)\n",
              rs.records, rs.ticks, rs.last_s - rs.first_s,
              rs.wall_seconds, eng.num_shards(),
              rcfg.time_scale > 0.0
                  ? std::to_string(rcfg.time_scale).c_str()
                  : "line-rate");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
