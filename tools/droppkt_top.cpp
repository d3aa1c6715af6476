// droppkt_top — live terminal dashboard over the droppkt-tm wire stream.
//
// A producer thread replays a deterministic incident feed through a
// sharded IngestEngine + AlertPipeline and, at every replay tick (the
// engine's watermark cadence), refreshes the engine gauges, snapshots the
// per-location QoE state, and ticks the IntervalStreamer. The main thread
// is a genuine wire consumer: it only ever reads what poll() delivers —
// it decodes droppkt-tm frames (directory, then interval frames) and
// renders everything from the decoded representation, exactly as an
// out-of-process dashboard would.
//
//   droppkt_top [--once] [--no-ansi] [--time-scale X] [--shards N]
//     --once        small feed, line-rate replay, one final render, exit
//     --no-ansi     never emit terminal clear escapes
//     --time-scale  feed-seconds per wall-second (default 240)
//     --shards      engine shard count (default 2)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "engine/replay.hpp"
#include "has/service_profile.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/streamer.hpp"
#include "telemetry/wire.hpp"
#include "util/render.hpp"

namespace {

using namespace droppkt;

constexpr std::size_t kHistoryCap = 120;

struct DashState {
  // Resolved from the decoded directory frame.
  std::set<telemetry::MetricId> shard_records_ids;
  std::set<telemetry::MetricId> shard_sessions_ids;
  std::set<telemetry::MetricId> shard_late_ids;
  telemetry::MetricId ml_rows_id = 0;
  telemetry::MetricId open_alerts_id = 0;
  telemetry::MetricId tracked_locations_id = 0;
  telemetry::MetricId dropped_intervals_id = 0;
  bool have_directory = false;
  // Rolling interval history (one point per decoded interval frame).
  std::vector<double> records_per_s;
  std::vector<double> sessions_per_s;
  std::vector<double> ml_rows_per_s;
  std::map<std::string, std::vector<double>> location_sessions;
  std::uint64_t late_records = 0;  // summed engine.shard<i>.late deltas
  telemetry::TmInterval last;
  std::uint64_t intervals = 0;
};

void push_capped(std::vector<double>& v, double x) {
  v.push_back(x);
  if (v.size() > kHistoryCap) v.erase(v.begin());
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void take_directory(DashState& st,
                    const std::vector<telemetry::TmDirectoryEntry>& dir) {
  for (const auto& e : dir) {
    if (e.name.rfind("engine.shard", 0) == 0) {
      if (ends_with(e.name, ".records")) st.shard_records_ids.insert(e.id);
      if (ends_with(e.name, ".sessions")) st.shard_sessions_ids.insert(e.id);
      if (ends_with(e.name, ".late")) st.shard_late_ids.insert(e.id);
    } else if (e.name == "ml.predictions") {
      st.ml_rows_id = e.id;
    } else if (e.name == "alert.open_alerts") {
      st.open_alerts_id = e.id;
    } else if (e.name == "alert.tracked_locations") {
      st.tracked_locations_id = e.id;
    } else if (e.name == "telemetry.dropped_intervals") {
      st.dropped_intervals_id = e.id;
    }
  }
  st.have_directory = true;
}

void take_interval(DashState& st, const telemetry::TmInterval& iv) {
  double secs = iv.seconds();
  if (secs <= 0.0) secs = 1e-9;
  std::uint64_t recs = 0;
  std::uint64_t sess = 0;
  for (const auto& [id, v] : iv.scalars) {
    if (st.shard_records_ids.count(id) != 0) recs += v;
    if (st.shard_sessions_ids.count(id) != 0) sess += v;
    if (st.shard_late_ids.count(id) != 0) st.late_records += v;
  }
  push_capped(st.records_per_s, static_cast<double>(recs) / secs);
  push_capped(st.sessions_per_s, static_cast<double>(sess) / secs);
  push_capped(st.ml_rows_per_s,
              static_cast<double>(iv.scalar(st.ml_rows_id)) / secs);
  for (const auto& loc : iv.locations) {
    auto& hist = st.location_sessions[loc.name];
    push_capped(hist, loc.effective_sessions);
  }
  st.last = iv;
  ++st.intervals;
}

void render(const DashState& st, bool ansi) {
  std::string out;
  char line[512];
  if (ansi) out += "\x1b[2J\x1b[H";
  std::snprintf(line, sizeof(line),
                "droppkt_top — interval #%" PRIu64 " (%.2fs), %" PRIu64
                " intervals decoded\n\n",
                st.last.seq, st.last.seconds(), st.intervals);
  out += line;

  util::TextTable totals({"metric", "per-second", "trend"});
  const auto rate_row = [&](const char* name, const std::vector<double>& h) {
    totals.add_row({name,
                    h.empty() ? "-" : util::format_fixed_or_general(h.back()),
                    util::sparkline(h, 48)});
  };
  rate_row("records processed", st.records_per_s);
  rate_row("sessions reported", st.sessions_per_s);
  rate_row("forest rows predicted", st.ml_rows_per_s);
  out += totals.render();
  std::snprintf(line, sizeof(line),
                "\nopen alerts: %" PRIu64 "   late records: %" PRIu64
                "   tracked locations: %" PRIu64
                "   dropped intervals: %" PRIu64 "\n\n",
                st.last.scalar(st.open_alerts_id), st.late_records,
                st.last.scalar(st.tracked_locations_id),
                st.last.scalar(st.dropped_intervals_id));
  out += line;

  if (!st.last.locations.empty()) {
    util::TextTable locs(
        {"location", "eff sessions", "low-QoE rate", "state",
         "classes L/M/H", "sessions trend"});
    for (const auto& loc : st.last.locations) {
      std::snprintf(line, sizeof(line), "[%.2f, %.2f]", loc.rate_low,
                    loc.rate_high);
      std::string classes = "-";
      if (!loc.class_counts.empty()) {
        classes.clear();
        for (std::size_t c = 0; c < loc.class_counts.size(); ++c) {
          if (c != 0) classes += "/";
          classes += std::to_string(loc.class_counts[c]);
        }
      }
      const auto hist = st.location_sessions.find(loc.name);
      locs.add_row({loc.name, util::fixed(loc.effective_sessions, 1), line,
                    loc.degraded ? "DEGRADED" : "ok", classes,
                    hist == st.location_sessions.end()
                        ? ""
                        : util::sparkline(hist->second, 24)});
    }
    out += locs.render();
  }
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  bool ansi = true;
  double time_scale = 240.0;
  std::size_t shards = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--once") once = true;
    else if (a == "--no-ansi") ansi = false;
    else if (a == "--time-scale" && i + 1 < argc)
      time_scale = std::strtod(argv[++i], nullptr);
    else if (a == "--shards" && i + 1 < argc)
      shards = std::strtoull(argv[++i], nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: droppkt_top [--once] [--no-ansi] "
                   "[--time-scale X] [--shards N]\n");
      return 2;
    }
  }
  if (once) ansi = false;

  std::printf("training estimator + generating incident feed...\n");
  core::DatasetConfig dcfg;
  dcfg.num_sessions = once ? 300 : 600;
  dcfg.seed = 41;
  core::QoeEstimator estimator;
  estimator.train(core::build_dataset(has::svc1_profile(), dcfg));

  engine::IncidentFeedConfig fcfg;
  fcfg.num_locations = once ? 3 : 6;
  fcfg.degraded_locations = once ? 1 : 2;
  fcfg.clients_per_location = once ? 4 : 6;
  fcfg.sessions_per_client = once ? 2 : 3;
  fcfg.incident_start_s = 600.0;
  fcfg.seed = 1000;
  const engine::Feed feed = engine::incident_feed(has::svc1_profile(), fcfg);

  // Shared telemetry plane: the ml counter first, then the engine and the
  // alert sink register in the engine constructor, then the streamer
  // freezes the directory.
  telemetry::MetricRegistry registry;
  estimator.bind_telemetry(&registry.counter("ml.predictions", "rows"));

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
  ecfg.registry = &registry;

  // Per-interval class distribution per location, fed by the session sink
  // and drained at each replay tick.
  std::mutex cls_mu;
  std::map<std::string, std::vector<std::uint64_t>> interval_classes;
  engine::IngestEngine eng(
      estimator,
      [&](const core::MonitoredSessionView& s) {
        const std::string loc = alert::default_location_of(s.client);
        const std::lock_guard<std::mutex> lock(cls_mu);
        auto& counts = interval_classes[loc];
        if (counts.size() < 3) counts.resize(3, 0);
        const auto cls = static_cast<std::size_t>(s.predicted_class);
        if (cls < counts.size()) ++counts[cls];
      },
      ecfg);
  telemetry::IntervalStreamer streamer(registry, telemetry::monotonic_clock());

  const auto do_tick = [&] {
    eng.refresh_gauges();
    std::vector<telemetry::TmLocation> locs;
    const auto snap = alerts.location_snapshot();
    {
      const std::lock_guard<std::mutex> lock(cls_mu);
      locs.reserve(snap.size());
      for (const auto& [name, w] : snap) {
        telemetry::TmLocation L;
        L.name = name;
        L.degraded = w.degraded;
        L.rate_low = w.interval.low;
        L.rate_high = w.interval.high;
        L.effective_sessions = w.effective_sessions;
        const auto it = interval_classes.find(name);
        if (it != interval_classes.end()) L.class_counts = it->second;
        locs.push_back(std::move(L));
      }
      interval_classes.clear();
    }
    streamer.tick(locs);
  };

  std::atomic<bool> done{false};
  std::thread producer([&] {
    engine::ReplayConfig rcfg;
    rcfg.time_scale = once ? 0.0 : time_scale;
    rcfg.on_tick = [&](double) { do_tick(); };
    engine::replay_feed(feed, eng, rcfg);
    eng.finish();
    do_tick();  // tail interval after the final flush
    done.store(true, std::memory_order_release);
  });

  // The consumer side: decode the wire stream and render only what it
  // carries. Frames always arrive whole (the streamer queues complete
  // frames), so the buffer ends at a frame boundary after every poll.
  DashState st;
  std::vector<std::uint8_t> stream = streamer.header_frame();
  std::size_t offset = 0;
  telemetry::tm_decode_header(stream, offset);
  telemetry::TmFrame frame;
  while (telemetry::tm_decode_frame(stream, offset, frame)) {
    if (frame.kind == telemetry::TmFrame::Kind::kDirectory) {
      take_directory(st, frame.directory);
    }
  }
  for (;;) {
    const bool finished = done.load(std::memory_order_acquire);
    const std::size_t got = streamer.poll(stream);
    if (got > 0) {
      while (telemetry::tm_decode_frame(stream, offset, frame)) {
        if (frame.kind == telemetry::TmFrame::Kind::kDirectory) {
          take_directory(st, frame.directory);
        } else {
          take_interval(st, frame.interval);
        }
      }
      if (!once) render(st, ansi);
    }
    if (finished && got == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(once ? 5 : 50));
  }
  producer.join();
  render(st, ansi);
  std::printf("\nfeed drained: %" PRIu64 " intervals on the wire, %" PRIu64
              " dropped\n",
              st.intervals, streamer.dropped_intervals());
  return 0;
}
