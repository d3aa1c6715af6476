// Extension bench (paper Section 5): generalizability of the models —
// does a model trained on one service transfer to another? The paper
// trains per service and leaves cross-service generalization to future
// work; this bench measures the full 3x3 transfer matrix.
#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  bench::print_header("Extension - cross-service model transfer",
                      "Section 5 future work (model generalizability)");

  const char* services[] = {"Svc1", "Svc2", "Svc3"};

  // Train one estimator per service.
  std::map<std::string, core::QoeEstimator> estimators;
  for (const char* svc : services) {
    core::QoeEstimator est(bench::paper_estimator());
    est.train(bench::dataset_for(svc));
    estimators.emplace(svc, std::move(est));
  }

  util::TextTable table(
      {"train \\ test", "Svc1", "Svc2", "Svc3"});
  std::map<std::string, double> same, cross;
  for (const char* train_svc : services) {
    std::vector<std::string> row{train_svc};
    for (const char* test_svc : services) {
      const auto& ds = bench::dataset_for(test_svc);
      const auto& est = estimators.at(train_svc);
      std::size_t correct = 0;
      for (const auto& s : ds) {
        correct += est.predict(s.record.tls) == s.labels.combined;
      }
      const double acc = static_cast<double>(correct) / ds.size();
      row.push_back(bench::pct0(acc));
      if (std::string(train_svc) == test_svc) same[train_svc] = acc;
      else cross[std::string(train_svc) + test_svc] = acc;
    }
    table.add_row(std::move(row));
  }
  std::printf("combined-QoE accuracy, train service (rows) vs test service "
              "(columns):\n%s\n", table.render().c_str());
  std::printf("note: diagonal entries are training-set accuracy (no CV) and\n"
              "overstate generalization; compare off-diagonal cells against\n"
              "the ~85%% cross-validated in-service numbers instead.\n\n");

  double same_mean = 0.0, cross_mean = 0.0;
  for (const auto& [k, v] : same) same_mean += v / same.size();
  for (const auto& [k, v] : cross) cross_mean += v / cross.size();
  std::printf("mean in-service (train-set) accuracy : %s\n",
              bench::pct0(same_mean).c_str());
  std::printf("mean cross-service accuracy          : %s\n\n",
              bench::pct0(cross_mean).c_str());
  std::printf("expected shape: clear degradation across services - the\n"
              "paper's per-service training is justified because TLS\n"
              "transaction patterns are service-design specific (Fig. 6\n"
              "importances differ across services for the same reason).\n");
  return 0;
}
