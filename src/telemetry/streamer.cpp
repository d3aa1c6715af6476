#include "telemetry/streamer.hpp"

#include <utility>

namespace droppkt::telemetry {

IntervalStreamer::IntervalStreamer(MetricRegistry& registry, NowFn now)
    // The drop counter registers first so the sampler (whose construction
    // freezes the directory) already sees it — drops are then reportable
    // over the same wire that loses the frames.
    : registry_(registry),
      dropped_(&registry.counter("telemetry.dropped_intervals", "frames")),
      sampler_(registry, std::move(now)),
      queue_(kQueueFrames, util::BackpressurePolicy::kBlock) {}

std::vector<std::uint8_t> IntervalStreamer::header_frame() const {
  std::vector<std::uint8_t> out;
  tm_write_header(out);
  const std::vector<TmDirectoryEntry> dir = tm_directory_of(registry_);
  tm_write_directory(out, dir);
  return out;
}

void IntervalStreamer::tick(std::span<const TmLocation> locations) {
  sampler_.sample(scratch_sample_);
  scratch_frame_.clear();
  tm_write_interval(scratch_frame_, scratch_sample_, locations);
  // try_push moves from the lvalue on success, leaving scratch_frame_
  // empty-but-reusable; on a full queue the frame stays put and is
  // discarded by the next tick's clear(). Either way the pipeline never
  // waits on the consumer.
  std::vector<std::uint8_t> frame = std::move(scratch_frame_);
  if (queue_.try_push(frame)) {
    scratch_frame_ = std::move(frame);  // moved-from donor, reuse capacity
  } else {
    scratch_frame_ = std::move(frame);  // frame intact; drop it, count it
    dropped_->inc();
  }
}

std::size_t IntervalStreamer::poll(std::vector<std::uint8_t>& out) {
  std::size_t frames = 0;
  std::vector<std::uint8_t> frame;
  while (queue_.try_pop(frame)) {
    out.insert(out.end(), frame.begin(), frame.end());
    ++frames;
  }
  return frames;
}

}  // namespace droppkt::telemetry
