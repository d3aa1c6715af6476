// Replay for the ingest engine: push a recorded proxy feed (feed lines,
// read back with read_feed) through a fresh engine — at line rate or
// paced by a time-scale factor — reproducing the original run's session
// and alert sequences byte-for-byte.
//
// What makes replay deterministic: the engine's outputs depend only on
// the record sequence and the watermark broadcast cadence, and the
// watermark cadence depends only on feed times (watermark_interval_s) —
// never on wall time. Pacing therefore only changes *when* records are
// offered to ingest_batch, not which records or in what order, so a
// replay at any --time-scale produces bit-identical sessions and alerts
// to the feed's source run. Ticks fall at the feed instants where the
// engine broadcasts watermarks, so a dashboard consumer can tick its
// sampler at the same feed instants the live run did.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "engine/engine.hpp"
#include "engine/feed.hpp"

namespace droppkt::engine {

struct ReplayConfig {
  /// Feed-seconds per wall-second, applied at ticks: 8.0 replays a 15 s
  /// watermark interval in ~1.9 s of wall time. 0 (default) replays at
  /// line rate — no pacing, full ingest throughput.
  double time_scale = 0.0;
  /// Records per ingest_batch() call.
  std::size_t batch = 256;
  /// Clock/sleep seam for pacing, monotonic nanoseconds. Defaults to
  /// steady_clock / sleep_for; tests substitute a manual clock so pacing
  /// logic is exercised without real waiting.
  std::function<std::uint64_t()> now_ns;
  std::function<void(std::uint64_t)> sleep_ns;
  /// Called at each tick with its feed time (after pacing, after every
  /// record before the tick is ingested) — the dashboard's sampler tick
  /// hook.
  std::function<void(double)> on_tick;
};

struct ReplayStats {
  std::uint64_t records = 0;
  std::uint64_t ticks = 0;
  double first_s = 0.0;  // feed time span covered by the records
  double last_s = 0.0;
  double wall_seconds = 0.0;
};

/// Push a feed (global start-time order) through `engine` in feed order.
/// A tick comes before the first record and before every record at least
/// engine.watermark_interval_s() past the previous tick: the instants the
/// engine broadcasts its watermarks. Does NOT call engine.finish() — the
/// caller decides when the stream ends (and may replay several feeds back
/// to back).
ReplayStats replay_feed(std::span<const FeedRecord> feed, IngestEngine& engine,
                        const ReplayConfig& config = {});

}  // namespace droppkt::engine
