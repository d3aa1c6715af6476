// Streaming monitor over an interleaved proxy feed: many subscribers
// watch back-to-back videos; the proxy exports TLS records in global
// time order; the monitor demultiplexes, splits sessions online and
// classifies each one as it completes.
//
// This is the single-threaded reference loop; engine_monitor.cpp runs the
// same workflow through the sharded multi-threaded IngestEngine.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/monitor.hpp"

int main() {
  using namespace droppkt;

  std::printf("Training estimator...\n");
  core::DatasetConfig cfg;
  cfg.num_sessions = 600;
  cfg.seed = 41;
  core::QoeEstimator estimator;
  estimator.train(core::build_dataset(has::svc1_profile(), cfg));

  // Build the proxy feed: 6 subscribers, each streaming 4 back-to-back
  // videos, interleaved in time.
  struct Record {
    std::string client;
    trace::TlsTransaction txn;
  };
  std::vector<Record> feed;
  std::size_t true_sessions = 0;
  for (int c = 0; c < 6; ++c) {
    const auto stream =
        core::build_back_to_back(has::svc1_profile(), 4, 1000 + c);
    true_sessions += stream.num_sessions;
    const std::string client = "subscriber-" + std::to_string(c);
    for (const auto& t : stream.merged) {
      Record r;
      r.client = client;
      r.txn = t;
      r.txn.start_s += c * 37.0;  // subscribers start at different times
      r.txn.end_s += c * 37.0;
      feed.push_back(std::move(r));
    }
  }
  std::sort(feed.begin(), feed.end(), [](const Record& a, const Record& b) {
    return a.txn.start_s < b.txn.start_s;
  });
  std::printf("Proxy feed: %zu TLS records from 6 subscribers "
              "(%zu true sessions)\n\n", feed.size(), true_sessions);

  // Run the monitor over the feed.
  int class_counts[3] = {0, 0, 0};
  core::StreamingMonitor monitor(
      core::StreamingMonitor::ViewSinkTag{}, estimator,
      [&](const core::MonitoredSessionView& v) {
        const core::MonitoredSession s = v.to_owned();
        ++class_counts[s.predicted_class];
        std::printf("  [%7.1fs] %-13s session ended: %3zu transactions, "
                    "QoE %s\n",
                    s.end_s, s.client.c_str(), s.transactions.size(),
                    estimator.class_name(s.predicted_class).c_str());
      });
  for (const auto& r : feed) monitor.observe(r.client, r.txn);
  monitor.finish();

  std::printf("\nMonitoring window summary: %zu sessions reported "
              "(%zu true)\n", monitor.sessions_reported(), true_sessions);
  std::printf("  low: %d   medium: %d   high: %d\n", class_counts[0],
              class_counts[1], class_counts[2]);
  std::printf("\nLow-QoE sessions would be aggregated per network location\n"
              "to drive the adaptive-monitoring escalation.\n");
  return 0;
}
