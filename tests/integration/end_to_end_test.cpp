// End-to-end reproductions of the paper's headline claims, at reduced
// scale so the suite stays fast. The bench binaries run the full scale.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/estimator.hpp"
#include "core/pipeline.hpp"
#include "core/session_id.hpp"
#include "engine/feed.hpp"
#include "net/link_model.hpp"
#include "trace/packet_generator.hpp"
#include "util/rng.hpp"

namespace droppkt::core {
namespace {

LabeledDataset dataset(const has::ServiceProfile& svc, std::size_t n,
                       std::uint64_t seed) {
  DatasetConfig cfg;
  cfg.num_sessions = n;
  cfg.seed = seed;
  cfg.trace_pool_size = 80;
  cfg.catalog_size = 30;
  return build_dataset(svc, cfg);
}

TEST(EndToEnd, ServiceDesignDrivesDegradationMode) {
  // Paper Section 4.1: poor networks -> low quality in Svc1, re-buffering
  // in Svc2.
  const auto svc1 = dataset(has::svc1_profile(), 300, 1);
  const auto svc2 = dataset(has::svc2_profile(), 300, 1);
  auto fraction = [](const LabeledDataset& ds, auto pred) {
    std::size_t n = 0;
    for (const auto& s : ds) n += pred(s);
    return static_cast<double>(n) / ds.size();
  };
  const double svc1_high_rebuf =
      fraction(svc1, [](const auto& s) { return s.labels.rebuffering == 0; });
  const double svc2_high_rebuf =
      fraction(svc2, [](const auto& s) { return s.labels.rebuffering == 0; });
  const double svc1_low_q =
      fraction(svc1, [](const auto& s) { return s.labels.video_quality == 0; });
  const double svc2_low_q =
      fraction(svc2, [](const auto& s) { return s.labels.video_quality == 0; });
  EXPECT_GT(svc2_high_rebuf, svc1_high_rebuf * 1.5);
  EXPECT_GT(svc1_low_q, svc2_low_q * 1.2);
}

TEST(EndToEnd, CombinedQoeDetectionRecallIsHigh) {
  // Paper: 73-85% recall in identifying low combined QoE from TLS data.
  const auto ds = dataset(has::svc1_profile(), 400, 2);
  const auto cv = evaluate_tls(ds, QoeTarget::kCombined);
  EXPECT_GT(cv.recall(0), 0.7);
  EXPECT_GT(cv.accuracy(), 0.6);
}

TEST(EndToEnd, ErrorsConcentrateBetweenNeighboringClasses) {
  // Paper Table 2: low misclassified as high (and vice versa) is rare.
  const auto ds = dataset(has::svc1_profile(), 400, 3);
  const auto cv = evaluate_tls(ds, QoeTarget::kCombined);
  const auto& cm = cv.pooled;
  const double low_as_high =
      static_cast<double>(cm.count(0, 2)) /
      std::max<std::size_t>(1, cm.actual_total(0));
  const double low_as_med =
      static_cast<double>(cm.count(0, 1)) /
      std::max<std::size_t>(1, cm.actual_total(0));
  EXPECT_LT(low_as_high, 0.1);
  EXPECT_LE(low_as_high, low_as_med + 0.02);
}

TEST(EndToEnd, PacketFeaturesAtLeastMatchTls) {
  // Paper Table 4: ML16 on packet traces gains 5-7% accuracy over TLS.
  // At test scale we assert it is not meaningfully worse; the bench
  // reproduces the gains at full scale.
  const auto ds = dataset(has::svc2_profile(), 350, 4);
  const auto tls = scores_from(evaluate_tls(ds, QoeTarget::kCombined));
  const auto pkt_data = make_ml16_dataset(ds, QoeTarget::kCombined);
  const auto pkt = scores_from(
      ml::cross_validate(pkt_data, forest_factory(), 5, 42 ^ 0xcafeULL));
  EXPECT_GT(pkt.accuracy, tls.accuracy - 0.03);
}

TEST(EndToEnd, OverheadRatiosHavePaperShape) {
  // Paper: ~1400x more packets than TLS transactions per session.
  const auto ds = dataset(has::svc1_profile(), 40, 5);
  double packets = 0.0, tls = 0.0;
  for (const auto& s : ds) {
    const trace::PacketTraceGenerator gen(
        net::link_params_for(s.record.environment));
    packets += static_cast<double>(gen.estimate_packet_count(s.record.http));
    tls += static_cast<double>(s.record.tls.size());
  }
  const double ratio = packets / tls;
  EXPECT_GT(ratio, 100.0);     // orders of magnitude apart
  EXPECT_LT(ratio, 100000.0);  // sanity
}

TEST(EndToEnd, TlsCoarsenessMatchesPaperScale) {
  // Paper: 19.5 TLS transactions and 12.1 HTTP per TLS for Svc1.
  const auto ds = dataset(has::svc1_profile(), 150, 6);
  double tls = 0.0, http = 0.0;
  for (const auto& s : ds) {
    tls += static_cast<double>(s.record.tls.size());
    http += static_cast<double>(s.record.http.size());
  }
  const double tls_per_session = tls / ds.size();
  const double http_per_tls = http / tls;
  EXPECT_GT(tls_per_session, 5.0);
  EXPECT_LT(tls_per_session, 80.0);
  EXPECT_GT(http_per_tls, 4.0);
  EXPECT_LT(http_per_tls, 40.0);
}

TEST(EndToEnd, ProxyFeedRoundTripFeedsEstimator) {
  // Deployment path: TLS logs written by a proxy as feed lines, re-read
  // from the file, classified.
  const auto train = dataset(has::svc1_profile(), 200, 7);
  QoeEstimator est;
  est.train(train);

  const auto test = dataset(has::svc1_profile(), 20, 8);
  const std::string path = ::testing::TempDir() + "/droppkt_e2e.feed";
  for (const auto& s : test) {
    {
      std::ofstream os(path);
      for (const auto& t : s.record.tls) {
        engine::write_feed_line({"subscriber", t}, os);
      }
    }
    std::ifstream is(path);
    trace::TlsLog back;
    for (auto& r : engine::read_feed(is)) back.push_back(std::move(r.txn));
    ASSERT_EQ(back.size(), s.record.tls.size());
    EXPECT_EQ(est.predict(back), est.predict(s.record.tls));
  }
  std::remove(path.c_str());
}

TEST(EndToEnd, TemporalFeaturesAmongTopImportances) {
  // Paper Fig. 6: CUM_DL_60s and friends appear in the top-10 across
  // services; the volume features dominate.
  const auto ds = dataset(has::svc1_profile(), 400, 9);
  QoeEstimator est;
  est.train(ds);
  const auto imp = est.feature_importances();
  bool temporal_in_top10 = false;
  for (std::size_t i = 0; i < 10; ++i) {
    if (imp[i].first.rfind("CUM_", 0) == 0) temporal_in_top10 = true;
  }
  EXPECT_TRUE(temporal_in_top10);
}

}  // namespace
}  // namespace droppkt::core
