// Table 2: confusion matrix for the combined QoE metric in Svc1
// (Random Forest, 5-fold CV, row-normalized percentages).
#include "bench_common.hpp"

int main() {
  using namespace droppkt;
  bench::print_header("Table 2 - Confusion matrix, Svc1 combined QoE",
                      "Table 2");

  const auto& ds = bench::dataset_for("Svc1");
  const auto cv = core::evaluate_tls(ds, core::QoeTarget::kCombined);
  std::printf("%s\n", cv.pooled.render({"low", "med", "high"}).c_str());
  std::printf("overall accuracy: %s\n\n", bench::pct0(cv.accuracy()).c_str());

  std::printf("paper Table 2 for comparison:\n");
  std::printf("  | actual | #sessions | -> low | -> med | -> high |\n");
  std::printf("  | low    | 632       | 72%%    | 21%%    | 8%%      |\n");
  std::printf("  | med    | 599       | 25%%    | 43%%    | 32%%     |\n");
  std::printf("  | high   | 880       | 5%%     | 12%%    | 84%%     |\n\n");
  std::printf("paper shape: misclassifications concentrate between\n"
              "neighboring classes; medium is hardest; low and high are\n"
              "classified with high accuracy.\n");

  const auto& cm = cv.pooled;
  auto frac = [&](int a, int p) {
    return static_cast<double>(cm.count(a, p)) /
           static_cast<double>(std::max<std::size_t>(1, cm.actual_total(a)));
  };
  bench::Claims claims;
  claims.check("table2.medium_lowest_diagonal",
               frac(1, 1) < frac(0, 0) && frac(1, 1) < frac(2, 2),
               "diagonal low %.4f, med %.4f, high %.4f", frac(0, 0),
               frac(1, 1), frac(2, 2));
  claims.check("table2.errors_between_neighbors",
               frac(0, 2) < frac(0, 1) && frac(2, 0) < frac(2, 1),
               "low->high %.4f < low->med %.4f, high->low %.4f < "
               "high->med %.4f",
               frac(0, 2), frac(0, 1), frac(2, 0), frac(2, 1));
  claims.check("table2.low_high_below_paper", frac(0, 2) < 0.08,
               "low->high %.4f (paper 0.08)", frac(0, 2));
  return claims.exit_code();
}
