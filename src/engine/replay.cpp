#include "engine/replay.hpp"

#include <chrono>
#include <thread>

#include "util/expect.hpp"

namespace droppkt::engine {

ReplayStats replay_feed(std::span<const FeedRecord> feed, IngestEngine& engine,
                        const ReplayConfig& config) {
  DROPPKT_EXPECT(config.batch >= 1, "replay_feed: batch must be >= 1");
  DROPPKT_EXPECT(config.time_scale >= 0.0,
                 "replay_feed: time scale must be >= 0");
  auto now_ns = config.now_ns;
  if (!now_ns) {
    now_ns = [] {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
  }
  auto sleep_ns = config.sleep_ns;
  if (!sleep_ns) {
    sleep_ns = [](std::uint64_t ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    };
  }

  ReplayStats stats;
  if (!feed.empty()) {
    stats.first_s = feed.front().txn.start_s;
    stats.last_s = feed.back().txn.start_s;
  }
  const double interval_s = engine.watermark_interval_s();
  const std::uint64_t wall0_ns = now_ns();
  double last_tick_s = 0.0;
  std::size_t begin = 0;  // first record not yet offered to the engine
  const auto flush = [&](std::size_t end) {
    if (end > begin) engine.ingest_batch(feed.subspan(begin, end - begin));
    begin = end;
  };
  for (std::size_t i = 0; i < feed.size(); ++i) {
    const double start_s = feed[i].txn.start_s;
    // Mirror of the engine's watermark cadence. Pace at ticks only: the
    // flush keeps record order intact, the sleep (if any) merely delays
    // when the next span is offered — the engine's outputs cannot observe
    // the difference.
    if (stats.ticks == 0 || start_s - last_tick_s >= interval_s) {
      flush(i);
      last_tick_s = start_s;
      ++stats.ticks;
      if (config.time_scale > 0.0) {
        const double target_ns =
            (start_s - stats.first_s) / config.time_scale * 1e9;
        const std::uint64_t elapsed_ns = now_ns() - wall0_ns;
        if (target_ns > static_cast<double>(elapsed_ns)) {
          sleep_ns(static_cast<std::uint64_t>(target_ns) - elapsed_ns);
        }
      }
      if (config.on_tick) config.on_tick(start_s);
    }
    if (i + 1 - begin >= config.batch) flush(i + 1);
  }
  flush(feed.size());
  stats.records = feed.size();
  stats.wall_seconds = static_cast<double>(now_ns() - wall0_ns) / 1e9;
  return stats;
}

}  // namespace droppkt::engine
