// Extension bench: model drift under player updates. The estimator learns
// a service's *current* traffic patterns; when the service ships a new
// ABR algorithm (same ladder, same CDN, different control loop), how much
// accuracy is lost before the ISP retrains?
#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "util/render.hpp"

namespace {

using namespace droppkt;

has::ServiceProfile with_abr(has::AbrKind abr) {
  has::ServiceProfile p = has::svc2_profile();
  p.abr = abr;
  return p;
}

core::LabeledDataset make(const has::ServiceProfile& svc, std::size_t n,
                          std::uint64_t seed) {
  core::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.num_sessions = n;
  return core::build_dataset(svc, cfg);
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
  bench::print_header(
      "Extension - model drift across player (ABR) updates",
      "Section 4.3 ('the extent of such patterns ... depends on the design "
      "of the streaming application')");

  struct Variant {
    const char* name;
    has::AbrKind abr;
  };
  const Variant variants[] = {
      {"sticky-rate (shipped)", has::AbrKind::kStickyRate},
      {"hybrid (update A)", has::AbrKind::kHybrid},
      {"MPC (update B)", has::AbrKind::kMpc},
      {"buffer-fill (update C)", has::AbrKind::kBufferFill},
  };

  // Train once on the shipped player (disjoint seed from the eval sets).
  const auto train_ds = make(with_abr(variants[0].abr), 1500,
                             bench::kBenchSeed + 999);
  core::QoeEstimator est(bench::paper_estimator());
  est.train(train_ds);

  util::TextTable table({"player variant", "high-rebuf share",
                         "accuracy (trained on shipped)",
                         "accuracy (retrained)"});
  for (const auto& v : variants) {
    const auto ds = make(with_abr(v.abr), 900, bench::kBenchSeed);
    double high_rebuf = 0.0;
    for (const auto& s : ds) high_rebuf += s.labels.rebuffering == 0;
    high_rebuf /= ds.size();

    const auto cv = core::evaluate_tls(ds, core::QoeTarget::kCombined);
    table.add_row({v.name, bench::pct0(high_rebuf),
                   bench::pct0(accuracy(est, ds)),
                   bench::pct0(cv.accuracy())});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("expected shape: each ABR redistributes QoE (buffer-fill\n"
              "trades stalls for low quality; MPC balances both) and shifts\n"
              "the traffic-to-QoE mapping, so the shipped-player model\n"
              "degrades on updates while retraining recovers - ISPs need a\n"
              "retraining cadence tied to service releases.\n");
  return 0;
}
