// Seed-corpus generator: every seed comes from the repo's own writers, so
// the fuzzers start from inputs that take the deep accept paths instead of
// spending their budget rediscovering the file formats byte by byte.
//
// Usage: droppkt_gen_corpus <corpus-root>
// Writes corpus/<target>/seed-* under the given root. The generated files
// are committed (fuzz/corpus/**) and replayed by both the fuzz smoke job
// and tests/integration/fuzz_regression_test.cpp.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "engine/feed.hpp"
#include "engine/replay.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/wire.hpp"
#include "trace/capture.hpp"
#include "trace/records.hpp"
#include "trace/serialize.hpp"
#include "util/csv.hpp"

namespace {

namespace fs = std::filesystem;
using droppkt::trace::TlsLog;
using droppkt::trace::TlsTransaction;

void write_seed(const fs::path& dir, const std::string& name,
                const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream ofs(dir / name, std::ios::binary);
  ofs.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!ofs) {
    std::fprintf(stderr, "gen_corpus: failed writing %s\n",
                 (dir / name).c_str());
    std::exit(1);
  }
}

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  write_seed(dir, name,
             std::string(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size()));
}

TlsTransaction txn(double start, double end, double ul, double dl,
                   std::size_t http, std::string sni) {
  TlsTransaction t;
  t.start_s = start;
  t.end_s = end;
  t.ul_bytes = ul;
  t.dl_bytes = dl;
  t.http_count = http;
  t.sni = std::move(sni);
  return t;
}

// A toy labelled corpus whose class follows the download volume, so a
// tiny forest splits on real features.
std::vector<std::pair<TlsLog, int>> tiny_sessions() {
  std::vector<std::pair<TlsLog, int>> sessions;
  for (int i = 0; i < 12; ++i) {
    const int label = i % 3;
    TlsLog log;
    for (int k = 0; k < 6; ++k) {
      const double start = 10.0 * k + i;
      log.push_back(txn(start, start + 4.0, 800.0 + i,
                        4.0e5 * (label + 1) + 1.0e3 * i, 2,
                        "video.example.com"));
    }
    sessions.emplace_back(std::move(log), label);
  }
  return sessions;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];

  // --- feed_line: output of write_feed --------------------------------
  {
    const fs::path dir = root / "feed_line";
    droppkt::engine::Feed feed;
    feed.push_back({"client-a", txn(0.0, 2.0, 800.0, 1.2e6, 4,
                                    "video.example.com")});
    feed.push_back({"client-b", txn(0.5, 3.75, 950.25, 2.5e6, 7, "")});
    feed.push_back({"client-a", txn(240.0, 241.5, 400.0, 9.0e5, 2,
                                    "cdn.example.net")});
    std::ostringstream os;
    droppkt::engine::write_feed(feed, os);
    write_seed(dir, "seed-feed.txt", os.str());
    std::ostringstream one;
    droppkt::engine::write_feed_line(feed[0], one);
    write_seed(dir, "seed-one-line.txt", one.str());
    write_seed(dir, "seed-extreme-numbers.txt",
               "c\t-1e308\t1e308\t0\t1.7976931348623157e308\t"
               "18446744073709551615\tsni\n");
  }

  // --- csv: output of CsvTable::write and write_tls_csv ----------------
  {
    const fs::path dir = root / "csv";
    {
      droppkt::util::CsvTable table({"name", "value", "note"});
      table.add_row({"plain", "1.25", "no quoting"});
      table.add_row({"comma", "2", "a,b"});
      table.add_row({"quote", "3", "say \"hi\""});
      table.add_row({"newline", "4", "line1\nline2"});
      table.add_row({"", "-0.0", ""});
      std::ostringstream os;
      table.write(os);
      write_seed(dir, "seed-quoting.csv", os.str());
    }
    {
      TlsLog log;
      log.push_back(txn(0.0, 1.0, 100.0, 5.0e5, 2, "video.example.com"));
      log.push_back(txn(1.5, 2.0, 200.0, 7.5e5, 3, "a,b\"c"));
      std::ostringstream os;
      droppkt::trace::write_tls_csv(log, os);
      write_seed(dir, "seed-tls-log.csv", os.str());
    }
    write_seed(dir, "seed-header-only.csv", "alpha,beta\n");
  }

  // --- model: QoeEstimator::save of tiny estimators ------------------
  {
    const fs::path dir = root / "model";
    const auto sessions = tiny_sessions();
    droppkt::core::EstimatorConfig cfg;
    cfg.forest.num_trees = 3;
    cfg.forest.max_depth = 3;
    cfg.forest.num_threads = 1;
    const auto save_seed = [&](const std::string& name) {
      droppkt::core::QoeEstimator est(cfg);
      est.train_raw(sessions);
      std::ostringstream os;
      est.save(os);
      write_seed(dir, name, os.str());
    };
    save_seed("seed-estimator.txt");
    cfg.target = droppkt::core::QoeTarget::kRebuffering;
    cfg.features.interval_ends_s = {12.3456789, 45.0, 1e-3};
    save_seed("seed-custom-intervals.txt");
  }

  // --- telemetry_wire: droppkt-tm v1 streams from the repo's encoders ---
  {
    namespace tm = droppkt::telemetry;
    const fs::path dir = root / "telemetry_wire";
    {
      std::vector<std::uint8_t> out;
      tm::tm_write_header(out);
      write_seed(dir, "seed-header-only.bin", out);
    }
    tm::MetricRegistry reg;
    auto& records = reg.counter("engine.shard0.records", "records");
    auto& depth = reg.gauge("engine.shard0.queue_depth", "msgs");
    auto& latency = reg.histogram("engine.shard0.latency", "ns");
    records.add(12345);
    depth.set(7);
    latency.record(3);
    latency.record(1500);
    latency.record(1u << 20);
    const std::vector<tm::TmDirectoryEntry> entries = tm::tm_directory_of(reg);
    {
      std::vector<std::uint8_t> out;
      tm::tm_write_header(out);
      tm::tm_write_directory(out, entries);
      write_seed(dir, "seed-directory.bin", out);
    }
    {
      tm::TmInterval iv;
      iv.seq = 2;
      iv.t0_ns = 1'000'000'000;
      iv.t1_ns = 6'000'000'000;
      iv.scalars = {{entries[0].id, 12345}, {entries[1].id, 7}};
      tm::TmHistogramDelta hd;
      hd.id = entries[2].id;
      hd.deltas[1] = 1;
      hd.deltas[10] = 1;
      hd.deltas[20] = 1;
      iv.hist_deltas.push_back(hd);
      tm::TmLocation loc;
      loc.name = "cell-d0";
      loc.degraded = true;
      loc.rate_low = 0.31;
      loc.rate_high = 0.78;
      loc.effective_sessions = 9.5;
      loc.class_counts = {4, 2, 1};
      iv.locations.push_back(loc);
      std::vector<std::uint8_t> out;
      tm::tm_write_header(out);
      tm::tm_write_directory(out, entries);
      tm::tm_write_interval(out, iv);
      write_seed(dir, "seed-directory-interval.bin", out);
    }
  }

  // --- feed_capture: DPFC files from capture_feed / the writer ----------
  {
    const fs::path dir = root / "feed_capture";
    write_seed(dir, "seed-empty.dpfc",
               droppkt::trace::feed_capture_bytes({}));
    {
      droppkt::engine::Feed feed;
      feed.push_back({"loc0-client0", txn(0.0, 2.0, 800.0, 1.2e6, 4,
                                          "video.example.com")});
      feed.push_back({"loc0-client1", txn(5.0, 9.5, 950.25, 2.5e6, 7, "")});
      feed.push_back({"loc1-client0", txn(20.0, 21.5, 400.0, 9.0e5, 2,
                                          "cdn.example.net")});
      droppkt::engine::CaptureConfig ccfg;
      ccfg.marker_interval_s = 10.0;
      const droppkt::trace::FeedCapture capture =
          droppkt::engine::capture_feed(feed, ccfg);
      write_seed(dir, "seed-markers.dpfc",
                 droppkt::trace::feed_capture_bytes(capture));
    }
    {
      droppkt::trace::FeedCapture capture;
      droppkt::trace::CaptureEvent rec;
      rec.kind = droppkt::trace::CaptureEvent::Kind::kRecord;
      rec.client = std::string(4096, 'c');
      rec.txn = txn(-10.0, 1e9, 0.5, 6.02e23, 1000000,
                    std::string(300, 'a') + ".example");
      capture.push_back(rec);
      droppkt::trace::CaptureEvent mk;
      mk.kind = droppkt::trace::CaptureEvent::Kind::kMarker;
      mk.marker_seq = 18446744073709551615ull;
      mk.marker_time_s = 1e12;
      capture.push_back(mk);
      write_seed(dir, "seed-extremes.dpfc",
                 droppkt::trace::feed_capture_bytes(capture));
    }
  }

  std::printf("gen_corpus: seeds written under %s\n", root.c_str());
  return 0;
}
