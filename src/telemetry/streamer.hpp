// IntervalStreamer: the producer/consumer seam between the hot pipeline
// and telemetry consumers. The producer side (tick(), called from
// whatever thread drives interval sampling) samples the registry, encodes
// one droppkt-tm interval frame, and hands it to a bounded SPSC queue
// with try_push — it NEVER blocks the pipeline. When the consumer falls
// behind and the queue is full, the frame is dropped and
// "telemetry.dropped_intervals" (registered by the streamer in the same
// registry it observes) is incremented, so the loss is itself visible on
// the wire. bench_engine_throughput asserts this counter stays 0 in the
// default configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/wire.hpp"
#include "util/spsc_queue.hpp"

namespace droppkt::telemetry {

/// Single-producer (tick) / single-consumer (poll) interval frame stream.
/// Construct AFTER every other metric is registered: the streamer
/// registers its own drop counter and then freezes the directory by
/// creating the sampler.
class IntervalStreamer {
 public:
  /// Bounded frame queue depth between tick() and poll().
  static constexpr std::size_t kQueueFrames = 64;

  IntervalStreamer(MetricRegistry& registry, NowFn now);

  /// The stream prologue a consumer needs before any interval frame:
  /// magic + version + directory frame. Prepending this to the
  /// concatenated poll() output yields a valid droppkt-tm stream.
  std::vector<std::uint8_t> header_frame() const;

  /// Sample one interval and enqueue it as an interval frame. Drops (and
  /// counts) the frame when the consumer is behind; never blocks.
  void tick(std::span<const TmLocation> locations = {});

  /// Drain every queued frame into `out` (appended). Returns the number
  /// of frames appended.
  std::size_t poll(std::vector<std::uint8_t>& out);

  /// Frames dropped because the queue was full (also on the wire as
  /// "telemetry.dropped_intervals").
  std::uint64_t dropped_intervals() const { return dropped_->value(); }

  std::uint64_t intervals_sampled() const {
    return sampler_.intervals_sampled();
  }

 private:
  const MetricRegistry& registry_;
  Counter* dropped_;  // registered before sampler_ freezes the directory
  IntervalSampler sampler_;
  util::SpscQueue<std::vector<std::uint8_t>> queue_;
  IntervalSample scratch_sample_;
  std::vector<std::uint8_t> scratch_frame_;
};

}  // namespace droppkt::telemetry
