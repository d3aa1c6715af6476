// Extension bench: QUIC. A transparent TCP proxy cannot split QUIC (UDP,
// end-to-end encrypted) into TLS transaction records at all, so as
// services shift to QUIC the paper's data source covers a shrinking
// fraction of sessions. Flow records (NetFlow) still see QUIC traffic.
// This bench quantifies low-QoE detection across deployment fractions
// for a TLS-only monitor vs a hybrid TLS+flow monitor.
#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "core/flow_features.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  bench::print_header(
      "Extension - monitoring coverage as services adopt QUIC",
      "Section 2.2 data-source assumptions (TCP-terminating proxy)");

  // Train both models on one corpus, evaluate on another.
  core::DatasetConfig cfg;
  cfg.num_sessions = 1400;
  cfg.seed = bench::kBenchSeed + 7;
  const auto train = core::build_dataset(has::svc1_profile(), cfg);
  cfg.seed = bench::kBenchSeed + 8;
  cfg.num_sessions = 900;
  const auto test = core::build_dataset(has::svc1_profile(), cfg);

  core::QoeEstimator tls_model(bench::paper_estimator());
  tls_model.train(train);

  ml::RandomForest flow_model;
  flow_model.fit(core::make_flow_dataset(train, core::QoeTarget::kCombined));

  // Pre-compute per-session predictions under both views.
  std::vector<int> tls_pred, flow_pred, truth;
  for (const auto& s : test) {
    truth.push_back(s.labels.combined);
    tls_pred.push_back(tls_model.predict(s.record.tls));
    flow_pred.push_back(flow_model.predict(core::extract_flow_features(
        core::flows_for_session(s.record))));
  }

  util::TextTable table({"QUIC share", "TLS-only: low-QoE recall",
                         "hybrid TLS+flow: low-QoE recall"});
  for (const double quic_share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    util::Rng rng(99);
    std::size_t low_total = 0, tls_hit = 0, hybrid_hit = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const bool quic = rng.bernoulli(quic_share);
      if (truth[i] != 0) continue;
      ++low_total;
      if (!quic && tls_pred[i] == 0) ++tls_hit;  // QUIC invisible to proxy
      if ((quic ? flow_pred[i] : tls_pred[i]) == 0) ++hybrid_hit;
    }
    table.add_row({bench::pct0(quic_share),
                   bench::pct0(static_cast<double>(tls_hit) / low_total),
                   bench::pct0(static_cast<double>(hybrid_hit) / low_total)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("expected shape: the TLS-only monitor's effective recall\n"
              "decays linearly with QUIC adoption (unseen sessions are\n"
              "undetected), while the hybrid monitor holds roughly flat -\n"
              "the flow path (this repo's NetFlow substrate) is the\n"
              "QUIC-proof fallback the paper's future work points at.\n");
  return 0;
}
