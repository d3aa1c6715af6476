// Sharded live monitoring with operator alerting: the deployment-scale
// successor to live_monitor. An interleaved multi-subscriber proxy feed —
// with a ground-truth incident injected at two cells — is drained by the
// IngestEngine (clients hashed across shard workers, each running its own
// StreamingMonitor behind a lock-free mailbox), while an
// alert::AlertPipeline attached as the engine's AlertSink turns the
// per-session verdict stream into location-level incidents: hysteresis
// over provisional flips, a decaying per-location window with a Wilson
// credibility test, and raise/clear lifecycle with cooldown. The alert
// sequence is deterministic: re-run with any shard count and every event
// is bit-identical.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "alert/pipeline.hpp"
#include "core/dataset_builder.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;

  std::printf("Training estimator...\n");
  core::DatasetConfig cfg;
  cfg.num_sessions = 600;
  cfg.seed = 41;
  core::QoeEstimator estimator;
  estimator.train(core::build_dataset(has::svc1_profile(), cfg));

  // The proxy feed: 6 cells x 6 subscribers, each streaming 3 videos.
  // At t=600s the last two cells' links congest — sessions starting there
  // afterwards stream through a squeezed link.
  engine::IncidentFeedConfig fcfg;
  fcfg.num_locations = 6;
  fcfg.degraded_locations = 2;
  fcfg.clients_per_location = 6;
  fcfg.sessions_per_client = 3;
  fcfg.incident_start_s = 600.0;
  fcfg.seed = 1000;
  engine::IncidentGroundTruth truth;
  const engine::Feed feed =
      engine::incident_feed(has::svc1_profile(), fcfg, &truth);
  std::printf("Proxy feed: %zu TLS records, %zu sessions; incident hits "
              "%zu/%zu cells at t=%.0fs\n\n",
              feed.size(), truth.sessions.size(),
              truth.degraded_locations.size(),
              truth.degraded_locations.size() + truth.healthy_locations.size(),
              truth.incident_start_s);

  // The alerting layer: stable per-session verdicts (3 consistent
  // confident estimates to flip), folded into a decaying per-cell window,
  // raised as an incident once the Wilson lower bound of the low-QoE rate
  // credibly exceeds 50%.
  alert::AlertPipelineConfig acfg;
  acfg.filter.hysteresis_k = 3;
  acfg.filter.min_confidence = 0.5;
  acfg.detector.half_life_s = 600.0;
  acfg.detector.min_effective_sessions = 4.0;
  // Residential cells hover well under 35% low-QoE in the healthy pool,
  // so credibly exceeding it is already incident-grade.
  acfg.detector.alert_rate = 0.35;
  acfg.manager.defaults.raise_rate = 0.35;
  acfg.manager.defaults.clear_rate = 0.2;
  alert::AlertPipeline alerts(acfg);

  engine::EngineConfig ecfg;
  ecfg.num_shards = 4;
  ecfg.monitor.client_idle_timeout_s = 120.0;
  ecfg.monitor.provisional_every = 4;  // in-flight estimate cadence
  ecfg.watermark_interval_s = 15.0;
  ecfg.alert_sink = &alerts;

  std::mutex mu;
  int class_counts[3] = {0, 0, 0};
  std::atomic<std::size_t> provisional_low{0};
  engine::IngestEngine eng(
      estimator,
      [&](const core::MonitoredSessionView& s) {
        const std::lock_guard<std::mutex> lock(mu);
        ++class_counts[s.predicted_class];
      },
      [&](const core::ProvisionalEstimate& p) {
        // Mid-session screening: the alert pipeline keys off these same
        // estimates instead of waiting for the idle timeout.
        if (p.predicted_class == 0) ++provisional_low;
      },
      ecfg);

  eng.ingest_batch(feed);
  eng.finish();

  std::printf("Alert timeline (deterministic across shard counts):\n");
  for (const auto& ev : alerts.log_snapshot()) {
    std::printf("  [%7.1fs] #%llu %-7s %-8s  low-QoE rate in "
                "[%.2f, %.2f], %.1f effective sessions\n",
                ev.time_s, static_cast<unsigned long long>(ev.id),
                ev.kind == alert::AlertEvent::Kind::kRaised ? "RAISED"
                                                            : "CLEARED",
                ev.location.c_str(), ev.rate_low, ev.rate_high,
                ev.effective_sessions);
  }

  // Where each cell's evidence is heading: the detector's decaying window
  // evaluated along a future horizon (no new sessions assumed), so an
  // operator can read off when a quiet incident will clear on its own.
  constexpr double kHorizonS = 1800.0;
  constexpr std::size_t kSteps = 24;
  std::printf("\nPer-cell state with projected decay over the next %.0f "
              "min (each cell: effective sessions at +0..%.0f min):\n",
              kHorizonS / 60.0, kHorizonS / 60.0);
  util::TextTable cells(
      {"cell", "eff sessions", "low-QoE rate", "state", "decay horizon"});
  for (const auto& [name, w] : alerts.location_snapshot()) {
    const auto curve = alerts.location_horizon(name, kHorizonS, kSteps);
    std::vector<double> eff;
    eff.reserve(curve.size());
    for (const auto& step : curve) eff.push_back(step.effective_sessions);
    char rate[32];
    std::snprintf(rate, sizeof(rate), "[%.2f, %.2f]", w.interval.low,
                  w.interval.high);
    cells.add_row({name, util::fixed(w.effective_sessions, 1), rate,
                   w.degraded ? "DEGRADED" : "ok", util::sparkline(eff)});
  }
  std::printf("%s", cells.render().c_str());

  const auto snap = eng.stats();
  std::printf("\nEngine statistics (%zu shards):\n%s\n", eng.num_shards(),
              snap.to_string().c_str());
  std::printf("Session QoE — low: %d   medium: %d   high: %d\n",
              class_counts[0], class_counts[1], class_counts[2]);
  std::printf("In-flight screening: %zu provisional low-QoE estimates "
              "surfaced before session close\n", provisional_low.load());
  std::printf("Open alerts at shutdown: %zu (ground truth: %zu degraded "
              "cells)\n", alerts.open_alerts(),
              truth.degraded_locations.size());
  return 0;
}
