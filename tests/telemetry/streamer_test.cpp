#include "telemetry/streamer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/wire.hpp"

namespace droppkt::telemetry {
namespace {

std::vector<TmFrame> decode_all(const std::vector<std::uint8_t>& bytes) {
  return tm_decode_stream(bytes);
}

TEST(TelemetryStreamer, HeaderPlusPolledFramesFormAValidStream) {
  MetricRegistry reg;
  Counter& c = reg.counter("work.items");
  ManualClock clock;
  IntervalStreamer streamer(reg, clock.fn());

  c.add(21);
  clock.advance(1'000'000'000);
  TmLocation loc;
  loc.name = "cell-0";
  loc.effective_sessions = 3.5;
  streamer.tick({&loc, 1});

  std::vector<std::uint8_t> stream = streamer.header_frame();
  EXPECT_EQ(streamer.poll(stream), 1u);
  const auto frames = decode_all(stream);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].kind, TmFrame::Kind::kDirectory);
  // The streamer's own drop counter is part of the directory.
  bool has_drop_metric = false;
  MetricId work_id = 0;
  for (const auto& e : frames[0].directory) {
    if (e.name == "telemetry.dropped_intervals") has_drop_metric = true;
    if (e.name == "work.items") work_id = e.id;
  }
  EXPECT_TRUE(has_drop_metric);
  ASSERT_EQ(frames[1].kind, TmFrame::Kind::kInterval);
  EXPECT_EQ(frames[1].interval.scalar(work_id), 21u);
  ASSERT_EQ(frames[1].interval.locations.size(), 1u);
  EXPECT_EQ(frames[1].interval.locations[0], loc);
  EXPECT_EQ(streamer.dropped_intervals(), 0u);
}

TEST(TelemetryStreamer, FullQueueDropsAndCountsNeverBlocks) {
  MetricRegistry reg;
  ManualClock clock;
  IntervalStreamer streamer(reg, clock.fn());

  // Three ticks past a full queue, with no consumer polling.
  constexpr std::size_t kTicks = IntervalStreamer::kQueueFrames + 3;
  for (std::size_t i = 0; i < kTicks; ++i) {
    clock.advance(1'000'000'000);
    streamer.tick();
  }
  EXPECT_EQ(streamer.intervals_sampled(), kTicks);
  EXPECT_EQ(streamer.dropped_intervals(), 3u);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(streamer.poll(out), IntervalStreamer::kQueueFrames);

  // The loss is itself visible on the wire. Sampling happens before the
  // enqueue attempt, so drops 1 and 2 were counted into deltas that rode
  // frames the queue then rejected; the next *delivered* interval carries
  // the delta since the last sample — the drop of the last tick.
  clock.advance(1'000'000'000);
  streamer.tick();
  out = streamer.header_frame();
  streamer.poll(out);
  const auto frames = decode_all(out);
  const MetricId drop_id =
      reg.find("telemetry.dropped_intervals")->id;
  EXPECT_EQ(frames.back().interval.scalar(drop_id), 1u);
}

TEST(TelemetryStreamer, CrossThreadTickAndPoll) {
  MetricRegistry reg;
  Counter& c = reg.counter("work.items");
  ManualClock clock;
  IntervalStreamer streamer(reg, clock.fn());

  constexpr std::uint64_t kTicks = 400;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTicks; ++i) {
      c.inc();
      clock.advance(1'000'000);
      streamer.tick();
    }
  });

  std::vector<std::uint8_t> stream = streamer.header_frame();
  std::size_t frames_seen = 1;  // the directory frame
  while (true) {
    const std::size_t got = streamer.poll(stream);
    frames_seen += got;
    if (streamer.intervals_sampled() == kTicks && got == 0) break;
    std::this_thread::yield();
  }
  producer.join();
  frames_seen += streamer.poll(stream);

  // Every tick either reached the consumer or was counted as dropped.
  EXPECT_EQ(frames_seen - 1 + streamer.dropped_intervals(), kTicks);
  const auto frames = decode_all(stream);
  ASSERT_EQ(frames.size(), frames_seen);
  // Sequence numbers strictly increase and counter deltas are conserved
  // over the delivered intervals.
  std::uint64_t delivered = 0;
  std::uint64_t last_seq = 0;
  const MetricId work_id = reg.find("work.items")->id;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].kind, TmFrame::Kind::kInterval);
    if (i > 1) {
      EXPECT_GT(frames[i].interval.seq, last_seq);
    }
    last_seq = frames[i].interval.seq;
    delivered += frames[i].interval.scalar(work_id);
  }
  EXPECT_LE(delivered, kTicks);
}

}  // namespace
}  // namespace droppkt::telemetry
