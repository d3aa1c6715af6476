// Table 3: accuracy / recall / precision as feature groups are added —
// session-level only (SL), + transaction statistics (TS), + temporal
// statistics. Combined QoE, Random Forest, 5-fold CV.
#include "bench_common.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  bench::print_header("Table 3 - Feature-set ablation",
                      "Table 3 (A/R/P per feature set and service)");

  util::TextTable table({"Feature set", "Svc1 A", "Svc1 R", "Svc1 P",
                         "Svc2 A", "Svc2 R", "Svc2 P", "Svc3 A", "Svc3 R",
                         "Svc3 P"});
  // accuracy[feature set][service]
  double accuracy[3][3] = {};
  int g = 0;
  for (auto set : {core::FeatureSet::kSessionLevel,
                   core::FeatureSet::kSessionPlusTransaction,
                   core::FeatureSet::kFull}) {
    std::vector<std::string> row{core::to_string(set)};
    int v = 0;
    for (const char* svc : {"Svc1", "Svc2", "Svc3"}) {
      const auto& ds = bench::dataset_for(svc);
      const auto s =
          core::scores_from(core::evaluate_tls(ds, core::QoeTarget::kCombined, set));
      accuracy[g][v++] = s.accuracy;
      row.push_back(bench::pct0(s.accuracy));
      row.push_back(bench::pct0(s.recall_low));
      row.push_back(bench::pct0(s.precision_low));
    }
    table.add_row(std::move(row));
    ++g;
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("paper Table 3 for comparison:\n");
  std::printf("  Only Session-level (SL)     | 58%% 61%% 60%% | 66%% 68%% 63%% | 66%% 77%% 66%%\n");
  std::printf("  SL + Transaction Stats (TS) | 65%% 72%% 67%% | 69%% 77%% 68%% | 71%% 84%% 74%%\n");
  std::printf("  SL + TS + Temporal Stats    | 69%% 73%% 71%% | 71%% 78%% 71%% | 73%% 85%% 75%%\n\n");
  std::printf("paper shape: recall improves 6-12%% and accuracy 6-11%% as\n"
              "transaction-level and temporal features are added - the\n"
              "within-session TLS structure carries QoE information beyond\n"
              "session-level volumetrics.\n");

  bench::Claims claims;
  bool rises = true;
  for (int v = 0; v < 3; ++v) {
    rises = rises && accuracy[0][v] < accuracy[1][v] &&
            accuracy[1][v] < accuracy[2][v];
  }
  claims.check("table3.accuracy_rises_per_group", rises,
               "SL < +TS < +temporal: Svc1 %.4f/%.4f/%.4f, Svc2 "
               "%.4f/%.4f/%.4f, Svc3 %.4f/%.4f/%.4f",
               accuracy[0][0], accuracy[1][0], accuracy[2][0],
               accuracy[0][1], accuracy[1][1], accuracy[2][1],
               accuracy[0][2], accuracy[1][2], accuracy[2][2]);
  return claims.exit_code();
}
