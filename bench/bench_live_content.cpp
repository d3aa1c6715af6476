// Extension bench (paper Section 5): live content. A live player cannot
// buffer ahead of the broadcast edge, so its traffic is paced at real
// time — how do the QoE mix and the estimator change?
#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  bench::print_header("Extension - live content vs video-on-demand",
                      "Section 5 future work (live service types)");

  const auto live = has::svc_live_profile();
  core::DatasetConfig cfg;
  cfg.num_sessions = 1500;
  cfg.seed = bench::kBenchSeed;
  const auto live_ds = core::build_dataset(live, cfg);
  const auto& vod_ds = bench::dataset_for("Svc1");

  // QoE mix: live should stall more (no buffer to ride out dips).
  auto mix = [](const core::LabeledDataset& ds, core::QoeTarget t, int cls) {
    std::size_t n = 0;
    for (const auto& s : ds) n += s.labels.label_for(t) == cls;
    return static_cast<double>(n) / ds.size();
  };
  util::TextTable qoe({"corpus", "#sessions", "high rebuf", "zero rebuf",
                       "low quality", "low combined"});
  struct Corpus {
    const char* name;
    const core::LabeledDataset* data;
  };
  const Corpus corpora[] = {{"VOD (Svc1)", &vod_ds}, {"Live", &live_ds}};
  for (const auto& c : corpora) {
    qoe.add_row({c.name, std::to_string(c.data->size()),
                 bench::pct0(mix(*c.data, core::QoeTarget::kRebuffering, 0)),
                 bench::pct0(mix(*c.data, core::QoeTarget::kRebuffering, 2)),
                 bench::pct0(mix(*c.data, core::QoeTarget::kVideoQuality, 0)),
                 bench::pct0(mix(*c.data, core::QoeTarget::kCombined, 0))});
  }
  std::printf("%s\n", qoe.render().c_str());

  // Estimation accuracy on live traffic, and VOD->live transfer.
  const auto live_cv = core::evaluate_tls(live_ds, core::QoeTarget::kCombined);
  std::printf("live-trained, live-tested (5-fold CV): accuracy %s, "
              "recall(low) %s\n",
              bench::pct0(live_cv.accuracy()).c_str(),
              bench::pct0(live_cv.recall(0)).c_str());

  core::QoeEstimator vod_model(bench::paper_estimator());
  vod_model.train(vod_ds);
  std::size_t correct = 0;
  for (const auto& s : live_ds) {
    correct += vod_model.predict(s.record.tls) == s.labels.combined;
  }
  std::printf("VOD-trained, live-tested (transfer):   accuracy %s\n\n",
              bench::pct0(static_cast<double>(correct) / live_ds.size()).c_str());

  std::printf("expected shape: live sessions stall more and show a\n"
              "different traffic envelope (real-time pacing), so the VOD\n"
              "model transfers poorly - per-service-type training is needed,\n"
              "as the paper anticipates.\n");
  return 0;
}
