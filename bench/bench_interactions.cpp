// Extension bench (paper Section 4.3): impact of user interactions
// (pauses, forward seeks) on inference accuracy. The paper lists this as
// future work; here we measure it. Three conditions:
//   clean->clean       : the paper's setting (no interactions anywhere)
//   clean->interactive : model trained on clean sessions, deployed against
//                        users who pause and skip (distribution shift)
//   inter->interactive : model retrained on interactive sessions
#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "net/link_model.hpp"
#include "trace/connection_manager.hpp"
#include "util/render.hpp"

namespace {

using namespace droppkt;

core::LabeledDataset simulate(const has::ServiceProfile& svc, std::size_t n,
                              std::uint64_t seed,
                              const has::InteractionModel& interactions) {
  util::Rng master(seed);
  const net::TracePool pool(200, master());
  const auto catalog = has::VideoCatalog::generate(svc.name, 40, master());
  const has::PlayerSimulator player;
  core::LabeledDataset out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t session_seed = master();
    util::Rng rng(session_seed);
    const auto& bw = pool.sample(rng);
    const double watch = pool.sample_session_duration(rng);
    const net::LinkModel link(bw);
    auto playback =
        player.play(svc, catalog.sample(rng), link, watch, rng, interactions);
    const trace::ConnectionManager conns(svc.connections, rng);
    auto tls = conns.collect(playback.http, rng);
    core::LabeledSession s;
    s.labels = core::compute_labels(playback.ground_truth, svc);
    s.record = {.service = svc.name,
                .video_id = "v",
                .environment = bw.environment(),
                .trace_avg_kbps = bw.average_kbps(),
                .watch_duration_s = watch,
                .seed = session_seed,
                .ground_truth = std::move(playback.ground_truth),
                .http = std::move(playback.http),
                .tls = std::move(tls)};
    out.push_back(std::move(s));
  }
  return out;
}

double accuracy(const core::QoeEstimator& est, const core::LabeledDataset& ds) {
  std::size_t correct = 0;
  for (const auto& s : ds) {
    correct += est.predict(s.record.tls) == s.labels.combined;
  }
  return static_cast<double>(correct) / ds.size();
}

}  // namespace

int main() {
  bench::print_header("Extension - impact of user interactions",
                      "Section 4.3 limitation ('part of the future work')");

  const auto svc = has::svc1_profile();
  const has::InteractionModel clean{};
  const has::InteractionModel active{.pause_rate_per_min = 0.5,
                                     .pause_mean_s = 25.0,
                                     .seek_rate_per_min = 0.6,
                                     .seek_mean_s = 45.0};

  const auto train_clean = simulate(svc, 1200, 1, clean);
  const auto train_inter = simulate(svc, 1200, 2, active);
  const auto test_clean = simulate(svc, 600, 3, clean);
  const auto test_inter = simulate(svc, 600, 4, active);

  double pauses = 0.0, seeks = 0.0;
  for (const auto& s : test_inter) {
    pauses += static_cast<double>(s.record.ground_truth.pause_count);
    seeks += static_cast<double>(s.record.ground_truth.seek_count);
  }
  std::printf("interactive sessions average %.1f pauses and %.1f seeks\n\n",
              pauses / test_inter.size(), seeks / test_inter.size());

  core::QoeEstimator est_clean(bench::paper_estimator());
  core::QoeEstimator est_inter(bench::paper_estimator());
  est_clean.train(train_clean);
  est_inter.train(train_inter);

  util::TextTable table({"train -> test", "accuracy"});
  table.add_row({"clean -> clean (paper setting)",
                 bench::pct0(accuracy(est_clean, test_clean))});
  table.add_row({"clean -> interactive (distribution shift)",
                 bench::pct0(accuracy(est_clean, test_inter))});
  table.add_row({"interactive -> interactive (retrained)",
                 bench::pct0(accuracy(est_inter, test_inter))});
  std::printf("%s\n", table.render().c_str());

  std::printf("expected shape: pauses stretch sessions (SES_DUR, IAT) and\n"
              "seeks discard buffered media, so a clean-trained model loses\n"
              "accuracy under interactions; retraining on interactive\n"
              "traffic recovers part of the loss.\n");
  return 0;
}
