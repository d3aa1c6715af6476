// CLI: classify proxy TLS-log exports with a saved model.
//
//   classify_log <model-path> <log.feed> [more-logs.feed ...]
//
// Each file holds one session's TLS transactions as proxy feed lines
// (engine::write_feed: client, start_s, end_s, ul_bytes, dl_bytes,
// http_count, sni, tab-separated). Demonstrates the deployment path:
// models are trained once (train_model) and shipped to monitoring nodes
// that only ever see proxy logs.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/estimator.hpp"
#include "engine/feed.hpp"

int main(int argc, char** argv) {
  using namespace droppkt;
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <model-path> <log.feed> [...]\n",
                 argv[0]);
    return 2;
  }
  try {
    const auto estimator = core::QoeEstimator::load_file(argv[1]);
    std::printf("loaded %s estimator from %s\n\n",
                core::to_string(estimator.config().target).c_str(), argv[1]);
    for (int i = 2; i < argc; ++i) {
      std::ifstream is(argv[i]);
      if (!is) throw std::runtime_error(std::string("cannot open ") + argv[i]);
      trace::TlsLog log;
      for (auto& r : engine::read_feed(is)) log.push_back(std::move(r.txn));
      const int cls = estimator.predict(log);
      const auto proba = estimator.predict_proba(log);
      std::printf("%-32s %zu transactions -> %-6s (p=%.2f)\n", argv[i],
                  log.size(), estimator.class_name(cls).c_str(),
                  proba[static_cast<std::size_t>(cls)]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
