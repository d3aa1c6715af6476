#include "workloads.hpp"

#include <stdexcept>

#include "util/string_pool.hpp"

namespace droppkt::benchmark {

namespace {

// Feeds are sized so that one pass takes well under a second: a run then
// repeats many passes and reports medians, which is what keeps the numbers
// steady on a shared machine. Every paced pass still yields at least one
// window of 1000 verdicts for the latency percentiles. provisional_heavy
// has 96 subscribers rather than fewer: with 24, how its subscribers'
// provisional estimates happened to bunch up in time moved p99 by 20%
// from seed to seed.
constexpr std::size_t kLongClients = 600;        // 288 k records
constexpr std::size_t kProvisionalClients = 96;  // 46 k records
constexpr std::size_t kIncidentCells = 100;      // ~170 k records
constexpr std::size_t kIncidentDegradedCells = 5;

/// The deployment configuration every streaming workload shares: 2 shard
/// workers, blocks of <= 256 records, 8192-message mailboxes that stall the
/// ingest thread when full, no transaction materialization.
engine::EngineConfig deployment_engine() {
  engine::EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 8192;
  cfg.backpressure = util::BackpressurePolicy::kBlock;
  cfg.drain_block = 256;
  cfg.monitor.materialize_transactions = false;
  return cfg;
}

/// Synthetic subscribers carry no location, so they are hashed into
/// `cells` cells; the low alert rate makes the mostly healthy feed raise
/// alerts, so the alert-sequence check compares real events.
alert::AlertPipelineConfig hashed_cell_alerts(std::uint64_t cells) {
  alert::AlertPipelineConfig cfg;
  cfg.location_of = [cells](std::string_view client) {
    return "cell-" + std::to_string(util::well_mixed_hash(client) % cells);
  };
  cfg.detector.alert_rate = 0.05;
  cfg.detector.min_effective_sessions = 2.0;
  cfg.manager.defaults.raise_rate = 0.05;
  cfg.manager.defaults.clear_rate = 0.02;
  return cfg;
}

engine::Feed long_session_feed(std::size_t clients, std::uint64_t seed) {
  engine::SynthFeedConfig cfg;
  cfg.num_clients = clients;
  cfg.sessions_per_client = 2;
  // At the feed's ~2.5 s chunk cadence, 240 connections is a ~10-minute
  // adaptive-streaming session.
  cfg.txns_per_session = 240;
  cfg.seed = seed;
  engine::Feed feed = engine::synthetic_feed(cfg);
  // Starve every 8th subscriber (by hash) so verdicts mix QoE classes.
  for (auto& r : feed) {
    if (util::well_mixed_hash(r.client) % 8 == 0) r.txn.dl_bytes *= 0.02;
  }
  return feed;
}

/// Held-out sessions replayed as a proxy feed: one subscriber per session,
/// staggered 1.5 s apart, in 32 cells.
engine::Feed heldout_replay_feed(const core::LabeledDataset& sessions) {
  engine::Feed feed;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    const std::string client = "svc-cell" + std::to_string(k % 32) +
                               "/sub-" + std::to_string(k);
    const trace::TlsLog& log = sessions[k].record.tls;
    if (log.empty()) continue;
    double t0 = log.front().start_s;
    for (const auto& t : log) t0 = std::min(t0, t.start_s);
    const double offset = 1.5 * static_cast<double>(k) - t0;
    for (const auto& t : log) {
      engine::FeedRecord r{client, t};
      r.txn.start_s += offset;
      r.txn.end_s += offset;
      feed.push_back(std::move(r));
    }
  }
  engine::sort_feed(feed);
  return feed;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "long_sessions", "provisional_heavy", "incident_churn", "offline_train"};
  return names;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.stream.engine = deployment_engine();
  in.services = {has::svc1_profile()};
  if (workload == "long_sessions") {
    in.feed = long_session_feed(kLongClients, seed);
    in.stream.alerts = hashed_cell_alerts(64);
    in.stream.ladder = {0.5e6, 1.0e6, 1.5e6, 2.0e6, 2.5e6};
  } else if (workload == "provisional_heavy") {
    in.feed = long_session_feed(kProvisionalClients, seed);
    in.stream.engine.monitor.provisional_every = 4;
    in.stream.alerts = hashed_cell_alerts(4);
    in.stream.ladder = {1.0e5, 2.0e5, 3.0e5, 4.0e5};
  } else if (workload == "incident_churn") {
    engine::IncidentFeedConfig cfg;
    cfg.num_locations = kIncidentCells;
    cfg.degraded_locations = kIncidentDegradedCells;
    cfg.clients_per_location = 20;
    cfg.sessions_per_client = 3;
    // A large session pool keeps the feed's make-up (and so its state
    // size) alike from seed to seed.
    cfg.pool_sessions = 200;
    cfg.client_stagger_s = 0.2;
    // Clients start in cell order over 400 s, so every session in the last
    // 5 cells (first starts at 380 s) streams through the congested link.
    cfg.incident_start_s = 300.0;
    cfg.seed = seed;
    engine::IncidentGroundTruth truth;
    in.feed = engine::incident_feed(has::svc1_profile(), cfg, &truth);
    in.truth = std::move(truth);
    // Default "location/subscriber" mapping; stale cells are evicted so
    // detector state stays bounded over many cells.
    auto& a = in.stream.alerts;
    a.filter.hysteresis_k = 3;
    a.filter.min_confidence = 0.5;
    a.detector.window = alert::WindowKind::kDecay;
    a.detector.half_life_s = 600.0;
    a.detector.alert_rate = 0.35;
    a.detector.min_effective_sessions = 4.0;
    a.manager.defaults.raise_rate = 0.35;
    a.manager.defaults.clear_rate = 0.2;
    a.manager.defaults.clear_cooldown_s = 300.0;
    a.evict_below_weight = 0.5;
    in.stream.ladder = {0.5e6, 1.0e6, 1.5e6};
  } else if (workload == "offline_train") {
    in.streaming = false;
    in.services = {has::svc1_profile(), has::svc2_profile(),
                   has::svc3_profile()};
    in.stream.ladder = {0.5e6, 1.0e6, 1.5e6};
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  for (const auto& svc : in.services) {
    core::DatasetConfig cfg;  // paper session count for the service
    cfg.seed = seed;
    in.train.push_back(core::build_dataset(svc, cfg));
    cfg.seed = seed + 1;
    in.heldout.push_back(core::build_dataset(svc, cfg));
  }
  if (!in.streaming) {
    in.feed = heldout_replay_feed(in.heldout.front());
    in.stream.alerts.detector.alert_rate = 0.05;
    in.stream.alerts.detector.min_effective_sessions = 2.0;
  }
  return in;
}

Models build_models(const Inputs& in, const std::string& work_dir,
                    std::size_t min_reps, double budget_s, MachineProbe& probe,
                    Report& report) {
  Models m;
  const std::int64_t start = now_ns();
  do {
    const double factor = probe.parallel();  // forests fit on 4 threads
    const std::int64_t heap_base = reset_heap_peak();
    std::vector<core::QoeEstimator> fitted;
    const std::int64_t t0 = now_ns();
    for (const auto& ds : in.train) {
      fitted.emplace_back();
      fitted.back().train(ds);
    }
    m.train_s.add_time(static_cast<double>(now_ns() - t0) / 1e9, factor);
    m.mem_peak_mb =
        static_cast<double>(heap_peak_bytes() - heap_base) / (1 << 20);
    m.trained = std::move(fitted);
  } while (m.train_s.raw.size() < min_reps ||
           static_cast<double>(now_ns() - start) / 1e9 < budget_s);

  std::size_t correct = 0;
  for (std::size_t s = 0; s < in.services.size(); ++s) {
    const core::LabeledDataset& held = in.heldout[s];
    std::vector<trace::TlsLog> logs;
    logs.reserve(held.size());
    for (const auto& ls : held) logs.push_back(ls.record.tls);
    const std::vector<int> predicted = m.trained[s].predict_batch(logs);
    for (std::size_t i = 0; i < held.size(); ++i) {
      correct += predicted[i] ==
                 held[i].labels.label_for(core::QoeTarget::kCombined);
    }
    m.heldout_sessions += held.size();

    const std::string path = work_dir + "/" + in.workload + "-" +
                             std::to_string(in.seed) + "-" +
                             in.services[s].name + ".model";
    m.trained[s].save_file(path);
    m.paths.push_back(path);
    const std::vector<int> reloaded =
        core::QoeEstimator::load_file(path).predict_batch(logs);
    std::uint64_t differ = 0;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      differ += reloaded[i] != predicted[i];
    }
    report.attempted(logs.size());
    report.fail(differ, in.services[s].name +
                            ": reloaded model predictions differ from the "
                            "trained model's");
  }
  m.accuracy = static_cast<double>(correct) /
               static_cast<double>(std::max<std::size_t>(m.heldout_sessions, 1));
  report.check(m.accuracy >= kAccuracyFloor,
               "held-out accuracy " + std::to_string(m.accuracy) +
                   " below the floor");
  std::printf("models: %zu service(s), %zu training reps, train %.3f s/rep, "
              "held-out accuracy %.4f over %zu sessions\n",
              in.services.size(), m.train_s.raw.size(), median(m.train_s.raw),
              m.accuracy, m.heldout_sessions);
  return m;
}

}  // namespace droppkt::benchmark
