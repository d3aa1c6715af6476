// Replays the committed fuzz seed corpus and every fuzzer-found crash
// regression through the exact harness code the fuzz targets run
// (fuzz/harnesses.cpp is compiled into this binary). A harness aborts the
// process on a round-trip break, so a regression here fails loudly; under
// -DDROPPKT_SANITIZE=address;undefined the CI run also re-checks every
// historical crash input for memory errors.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harnesses.hpp"

namespace droppkt::fuzz {
namespace {

namespace fs = std::filesystem;

using Harness = std::function<int(const std::uint8_t*, std::size_t)>;

fs::path repo_root() { return fs::path(DROPPKT_SOURCE_DIR); }

std::vector<fs::path> inputs_for(const std::string& target) {
  std::vector<fs::path> files;
  for (const char* kind : {"corpus", "regressions"}) {
    const fs::path dir = repo_root() / "fuzz" / kind / target;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void replay(const std::string& target, const Harness& harness,
            std::size_t min_expected) {
  const auto files = inputs_for(target);
  // Catches the corpus silently disappearing (bad checkout, renamed dir):
  // an empty replay would otherwise pass vacuously.
  EXPECT_GE(files.size(), min_expected)
      << "missing committed inputs under fuzz/{corpus,regressions}/"
      << target;
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    std::ifstream ifs(path, std::ios::binary);
    ASSERT_TRUE(ifs.good());
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(ifs),
                                          std::istreambuf_iterator<char>()};
    EXPECT_EQ(harness(bytes.data(), bytes.size()), 0);
  }
}

TEST(FuzzRegression, FeedLine) { replay("feed_line", one_feed_line, 4); }

TEST(FuzzRegression, Csv) { replay("csv", one_csv, 4); }

TEST(FuzzRegression, Model) { replay("model", one_model, 8); }

TEST(FuzzRegression, TelemetryWire) {
  replay("telemetry_wire", one_telemetry_wire, 3);
}

TEST(FuzzRegression, FeedCapture) {
  replay("feed_capture", one_feed_capture, 3);
}

}  // namespace
}  // namespace droppkt::fuzz
