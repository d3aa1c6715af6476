// Table 4: QoE estimation from packet traces with the ML16 baseline
// (Dimopoulos et al., IMC'16) vs TLS transaction data, plus the memory and
// computation overhead comparison from Section 4.2.
#include <chrono>

#include "bench_common.hpp"
#include "core/ml16_features.hpp"
#include "core/tls_features.hpp"
#include "net/link_model.hpp"
#include "trace/packet_generator.hpp"
#include "util/render.hpp"

int main() {
  using namespace droppkt;
  using Clock = std::chrono::steady_clock;
  bench::print_header(
      "Table 4 - Packet traces + ML16 vs TLS transactions",
      "Table 4 (+ Section 4.2 overhead: 1400x records, 60x compute)");

  util::TextTable table({"service", "TLS A", "TLS R", "TLS P", "ML16 A",
                         "ML16 R", "ML16 P", "gain A", "gain R", "gain P"});
  double tls_accuracy[3] = {};
  double ml16_accuracy[3] = {};
  int v = 0;
  for (const char* svc : {"Svc1", "Svc2", "Svc3"}) {
    const auto& ds = bench::dataset_for(svc);
    const auto tls =
        core::scores_from(core::evaluate_tls(ds, core::QoeTarget::kCombined));
    const auto pkt_data = core::make_ml16_dataset(ds, core::QoeTarget::kCombined);
    const auto pkt = core::scores_from(
        ml::cross_validate(pkt_data, core::forest_factory(), 5, 42 ^ 0xcafeULL));
    tls_accuracy[v] = tls.accuracy;
    ml16_accuracy[v++] = pkt.accuracy;
    auto gain = [](double a, double b) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%+.0f%%", 100.0 * (a - b));
      return std::string(buf);
    };
    table.add_row({svc, bench::pct0(tls.accuracy), bench::pct0(tls.recall_low),
                   bench::pct0(tls.precision_low), bench::pct0(pkt.accuracy),
                   bench::pct0(pkt.recall_low), bench::pct0(pkt.precision_low),
                   gain(pkt.accuracy, tls.accuracy),
                   gain(pkt.recall_low, tls.recall_low),
                   gain(pkt.precision_low, tls.precision_low)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper Table 4: Svc1 74%%/82%%/73%% (+5/+9/+2), Svc2 "
              "78%%/85%%/76%% (+7/+7/+5), Svc3 78%%/89%%/78%% (+5/+4/+3)\n\n");

  // ---- Overhead comparison (Section 4.2). --------------------------------
  const auto& ds = bench::dataset_for("Svc1");

  // Memory: records per session.
  double packets = 0.0, tls_n = 0.0;
  for (const auto& s : ds) {
    const trace::PacketTraceGenerator gen(
        net::link_params_for(s.record.environment));
    packets += static_cast<double>(gen.estimate_packet_count(s.record.http));
    tls_n += static_cast<double>(s.record.tls.size());
  }
  std::printf("Memory overhead (Svc1):\n");
  std::printf("  avg packets per session          : %.0f  (paper: 27,689)\n",
              packets / ds.size());
  std::printf("  avg TLS transactions per session : %.1f  (paper: 19.5)\n",
              tls_n / ds.size());
  std::printf("  ratio                            : %.0fx (paper: ~1400x)\n\n",
              packets / tls_n);

  // Computation: feature extraction over all Svc1 sessions.
  const auto t0 = Clock::now();
  for (const auto& s : ds) {
    util::Rng rng(s.record.seed ^ 0x9ac4e7ULL);
    const trace::PacketTraceGenerator gen(
        net::link_params_for(s.record.environment));
    const auto pkts = gen.generate(s.record.http, rng);
    (void)core::extract_ml16_features(pkts);
  }
  const auto t_pkt = Clock::now();
  for (const auto& s : ds) {
    (void)core::extract_tls_features(s.record.tls);
  }
  const auto t_tls = Clock::now();
  const double pkt_ms =
      std::chrono::duration<double, std::milli>(t_pkt - t0).count();
  const double tls_ms =
      std::chrono::duration<double, std::milli>(t_tls - t_pkt).count();
  std::printf("Computation overhead (feature extraction, all Svc1 sessions):\n");
  std::printf("  packet pipeline: %.0f ms   (paper: 503 s on its hardware)\n",
              pkt_ms);
  std::printf("  TLS pipeline   : %.1f ms   (paper: 8.3 s)\n", tls_ms);
  std::printf("  ratio          : %.0fx     (paper: ~60x)\n", pkt_ms / tls_ms);
  std::printf("\npaper shape: packets win accuracy by single digits but cost\n"
              "orders of magnitude more memory and compute - motivating\n"
              "adaptive monitoring (fine-grained data only where TLS-based\n"
              "detection flags problems).\n");

  bench::Claims claims;
  double gain[3];
  for (int i = 0; i < 3; ++i) gain[i] = ml16_accuracy[i] - tls_accuracy[i];
  claims.check("table4.ml16_beats_tls_most_on_svc2",
               gain[0] > 0.0 && gain[1] > 0.0 && gain[2] > 0.0 &&
                   gain[1] > gain[0] && gain[1] > gain[2],
               "ML16 - TLS accuracy Svc1 %+.4f (%.4f vs %.4f), Svc2 %+.4f "
               "(%.4f vs %.4f), Svc3 %+.4f (%.4f vs %.4f)",
               gain[0], ml16_accuracy[0], tls_accuracy[0], gain[1],
               ml16_accuracy[1], tls_accuracy[1], gain[2], ml16_accuracy[2],
               tls_accuracy[2]);
  claims.check("table4.packets_per_tls_record_100x", packets >= 100.0 * tls_n,
               "%.1fx (%.0f packets vs %.1f TLS records per session)",
               packets / tls_n, packets / static_cast<double>(ds.size()),
               tls_n / static_cast<double>(ds.size()));
  claims.check("table4.packet_extraction_10x", pkt_ms >= 10.0 * tls_ms,
               "%.1fx (%.1f ms vs %.2f ms)", pkt_ms / tls_ms, pkt_ms, tls_ms);
  return claims.exit_code();
}
