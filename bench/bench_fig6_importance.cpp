// Figure 6: top-10 Random Forest feature importances per service
// (combined QoE target, full 38-feature set).
#include <set>

#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  bench::print_header("Figure 6 - Top-10 feature importances per service",
                      "Fig. 6a/6b/6c");

  std::map<std::string, std::set<std::string>> top10_by_service;
  std::vector<std::pair<std::string, double>> top1_by_service;
  for (const char* svc : {"Svc1", "Svc2", "Svc3"}) {
    const auto& ds = bench::dataset_for(svc);
    core::QoeEstimator est(bench::paper_estimator());
    est.train(ds);
    const auto imp = est.feature_importances();
    top1_by_service.push_back(imp.front());

    std::printf("%s:\n", svc);
    std::vector<std::pair<std::string, double>> top;
    for (std::size_t i = 0; i < 10 && i < imp.size(); ++i) {
      top.emplace_back(imp[i].first, imp[i].second);
      top10_by_service[svc].insert(imp[i].first);
    }
    std::printf("%s\n", util::bar_chart(top, 36).c_str());
  }

  // Paper: 4 features appear in the top-10 of all three services
  // (SDR_DL, TDR_MED, D2U_MED, CUM_DL_60s); 8 appear in only one.
  std::set<std::string> in_all;
  std::map<std::string, int> appearance;
  for (const auto& [svc, names] : top10_by_service) {
    for (const auto& n : names) ++appearance[n];
  }
  std::printf("features in the top-10 of all three services:");
  int common = 0, unique = 0;
  for (const auto& [name, count] : appearance) {
    if (count == 3) {
      std::printf(" %s", name.c_str());
      ++common;
    }
    if (count == 1) ++unique;
  }
  std::printf("\n  -> %d features common to all services (paper: 4, incl. "
              "SDR_DL, TDR_MED, D2U_MED, CUM_DL_60s)\n", common);
  std::printf("  -> %d features appear in only one service (paper: 8) - "
              "service designs differ\n", unique);

  // Volume features rank first: every service's top feature is a
  // cumulative-download counter or the session download rate.
  bench::Claims claims;
  bool volume_first = true;
  for (const auto& top : top1_by_service) {
    volume_first = volume_first && (top.first.starts_with("CUM_DL_") ||
                                    top.first == "SDR_DL");
  }
  claims.check("fig6.volume_feature_ranks_first", volume_first,
               "top feature Svc1 %s %.4f, Svc2 %s %.4f, Svc3 %s %.4f",
               top1_by_service[0].first.c_str(), top1_by_service[0].second,
               top1_by_service[1].first.c_str(), top1_by_service[1].second,
               top1_by_service[2].first.c_str(), top1_by_service[2].second);
  return claims.exit_code();
}
