// Extension bench: the end goal — localizing underperforming network
// locations from coarse data ("identify parts of the network that
// underperform in a lightweight manner", Section 1). How many sessions
// per location does the TLS-based detector need before degraded
// locations are credibly flagged and healthy ones left alone?
#include "alert/location_detector.hpp"
#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "has/player.hpp"
#include "net/link_model.hpp"
#include "net/trace_generator.hpp"
#include "trace/connection_manager.hpp"
#include "util/render.hpp"

namespace {

using namespace droppkt;

/// Simulate `n` sessions at a location with the given congestion level
/// and feed the estimator's verdicts into the detector, one per second.
void observe_location(const std::string& name, double congestion,
                      std::size_t n, const core::QoeEstimator& est,
                      alert::LocationDetector& det, util::Rng& rng) {
  net::TraceGenerator gen(rng());
  const auto svc = has::svc1_profile();
  const auto catalog = has::VideoCatalog::generate(svc.name, 20, rng());
  const has::PlayerSimulator player;
  for (std::size_t i = 0; i < n; ++i) {
    auto bw = gen.generate(net::Environment::kLte, 600.0);
    std::vector<net::BandwidthSample> squeezed;
    for (const auto& s : bw.samples()) {
      squeezed.push_back({s.t_s, s.kbps * (1.0 - congestion)});
    }
    const net::BandwidthTrace trace(std::move(squeezed), bw.duration_s(),
                                    net::Environment::kLte);
    const net::LinkModel link(trace);
    auto playback = player.play(svc, catalog.sample(rng), link,
                                rng.uniform(60.0, 300.0), rng);
    const trace::ConnectionManager conns(svc.connections, rng);
    const auto tls = conns.collect(playback.http, rng);
    det.observe(name, static_cast<double>(i), est.predict(tls) == 0);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Extension - localizing degraded network locations",
      "Section 1 use case (detect underperforming locations, escalate)");

  core::QoeEstimator est;
  est.train(bench::dataset_for("Svc1"));

  // 12 healthy LTE cells, 4 congested ones.
  struct Cell {
    std::string name;
    double congestion;
    bool degraded;
  };
  std::vector<Cell> cells;
  for (int i = 0; i < 12; ++i) {
    cells.push_back({"cell-h" + std::to_string(i), 0.05, false});
  }
  for (int i = 0; i < 4; ++i) {
    cells.push_back({"cell-D" + std::to_string(i), 0.93, true});
  }

  util::TextTable table({"sessions/location", "degraded flagged (of 4)",
                         "healthy flagged (of 12)"});
  for (std::size_t n : {5u, 10u, 20u, 40u}) {
    // A sliding window longer than the run counts every verdict once.
    const double run_s = static_cast<double>(n);
    alert::DetectorConfig cfg;
    cfg.window = alert::WindowKind::kSliding;
    cfg.window_s = run_s + 1.0;
    cfg.alert_rate = 0.5;
    cfg.min_effective_sessions = 5.0;
    alert::LocationDetector det(cfg);
    util::Rng rng(bench::kBenchSeed + n);
    for (const auto& c : cells) {
      observe_location(c.name, c.congestion, n, est, det, rng);
    }
    std::size_t tp = 0, fp = 0;
    for (const auto& flagged : det.degraded(run_s)) {
      bool degraded = false;
      for (const auto& c : cells) {
        if (c.name == flagged.first) degraded = c.degraded;
      }
      (degraded ? tp : fp) += 1;
    }
    table.add_row({std::to_string(n), std::to_string(tp), std::to_string(fp)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("expected shape: with a Wilson-interval gate, a few tens of\n"
              "sessions per location suffice to flag every congested cell\n"
              "without false alarms - the 'lightweight network-wide\n"
              "monitoring' the paper argues coarse data enables.\n");
  return 0;
}
