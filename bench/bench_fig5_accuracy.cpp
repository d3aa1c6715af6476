// Figure 5: classification accuracy / recall / precision for each QoE
// metric (re-buffering, video quality, combined), per service.
// Random Forest, 38 TLS features, 5-fold stratified cross-validation.
#include "bench_common.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  bench::print_header(
      "Figure 5 - Accuracy per QoE metric (TLS transaction data)",
      "Fig. 5a/5b + Section 4.2 (Svc3 reported in text)");

  // scores[service][target]: rebuffering, video quality, combined.
  core::Scores scores[3][3];
  const char* services[] = {"Svc1", "Svc2", "Svc3"};
  for (int v = 0; v < 3; ++v) {
    const auto& ds = bench::dataset_for(services[v]);
    std::printf("%s (%zu sessions):\n", services[v], ds.size());
    util::TextTable table(
        {"QoE metric", "accuracy", "recall(worst)", "precision(worst)"});
    int t = 0;
    for (auto target : {core::QoeTarget::kRebuffering,
                        core::QoeTarget::kVideoQuality,
                        core::QoeTarget::kCombined}) {
      const auto s = core::scores_from(core::evaluate_tls(ds, target));
      scores[v][t++] = s;
      table.add_row({core::to_string(target), bench::pct0(s.accuracy),
                     bench::pct0(s.recall_low), bench::pct0(s.precision_low)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("paper shape:\n");
  std::printf("  - Svc1: video-quality recall (68%%) >> re-buffering recall "
              "(21%%) - quality degrades under poor networks\n");
  std::printf("  - Svc2: re-buffering recall (71%%) > video-quality recall "
              "(40%%) - trend reversed\n");
  std::printf("  - combined QoE: high accuracy for all services, recall "
              "73-85%%\n");

  bench::Claims claims;
  const auto& svc1 = scores[0];
  const auto& svc3 = scores[2];
  claims.check("fig5.svc1_vq_recall_above_rebuf", svc1[1].recall_low >
                                                      svc1[0].recall_low,
               "video-quality recall %.4f, re-buffering recall %.4f",
               svc1[1].recall_low, svc1[0].recall_low);
  claims.check("fig5.svc3_recalls_at_paper",
               svc3[0].recall_low >= 0.63 && svc3[1].recall_low >= 0.58,
               "re-buffering recall %.4f (paper 0.63), video-quality recall "
               "%.4f (paper 0.58)",
               svc3[0].recall_low, svc3[1].recall_low);
  bool combined_ok = true;
  for (const auto& svc : scores) {
    combined_ok = combined_ok && svc[2].recall_low >= 0.73 &&
                  svc[2].accuracy >= 0.69;
  }
  claims.check("fig5.combined_at_paper_low_end", combined_ok,
               "combined recall/accuracy Svc1 %.4f/%.4f, Svc2 %.4f/%.4f, "
               "Svc3 %.4f/%.4f (paper >= 0.73/0.69)",
               scores[0][2].recall_low, scores[0][2].accuracy,
               scores[1][2].recall_low, scores[1][2].accuracy,
               scores[2][2].recall_low, scores[2][2].accuracy);
  return claims.exit_code();
}
