// droppkt-tm v1 — the compact binary wire format for streaming telemetry
// intervals to out-of-process consumers (the droppkt_top dashboard, file
// captures). Framing is built for forward compatibility and hostile
// input alike: every frame and every field inside an interval frame is
// length-prefixed, so decoders skip what they do not understand and
// reject what does not fit. The full byte-level spec lives in
// DESIGN.md §5g.
//
// Stream layout:
//   header  := "DPTM" u32 version(=1)
//   frame   := u8 type, u32 payload_len, payload[payload_len]
//     type 1 (directory): u32 count, then per metric
//       u32 id, u8 kind, u16 name_len, name, u16 unit_len, unit
//     type 2 (interval): tagged fields, each
//       u8 tag, u32 field_len, field[field_len]
//         tag 1 (header):    u64 seq, u64 t0_ns, u64 t1_ns
//         tag 2 (scalars):   u32 count, then (u32 id, u64 value) pairs
//         tag 3 (histogram): u32 id, u16 pairs, then (u8 bucket, u64 delta)
//         tag 4 (locations): u16 count, then per location
//           u16 name_len, name, u8 degraded, f64 rate_low, f64 rate_high,
//           f64 effective_sessions, u8 class_count, class_count × u64
//     unknown tags and unknown frame types are skipped via their length
//     prefix; anything truncated or over-limit raises ParseError.
//
// All integers are little-endian (the native layout of every platform the
// repo targets; matches the DPFC capture format in trace/capture).
//
// Decoders follow the PR-3 hardening rules: u64-widened bounds checks,
// count-versus-remaining-bytes validation before any reserve, typed
// ParseError (never a crash or unbounded allocation) — fuzzed by
// fuzz/fuzz_telemetry_wire.cpp via the decode → re-encode → re-decode
// round-trip oracle tm_encode_frames().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"

namespace droppkt::telemetry {

/// One directory row: the id→(kind, name, unit) binding consumers need to
/// interpret interval frames.
struct TmDirectoryEntry {
  MetricId id = 0;
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  std::string unit;

  bool operator==(const TmDirectoryEntry&) const = default;
};

/// Per-location QoE state carried in interval frames: the detector's
/// Wilson rate window plus the interval's predicted-class distribution.
struct TmLocation {
  std::string name;
  bool degraded = false;
  double rate_low = 0.0;
  double rate_high = 0.0;
  double effective_sessions = 0.0;
  /// Predicted QoE class counts over the interval, indexed by class.
  std::vector<std::uint64_t> class_counts;

  bool operator==(const TmLocation&) const = default;
};

struct TmHistogramDelta {
  MetricId id = 0;
  Histogram::Counts deltas{};

  bool operator==(const TmHistogramDelta&) const = default;
};

/// A decoded interval frame.
struct TmInterval {
  std::uint64_t seq = 0;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  /// Sparse (id, value) pairs exactly as they appeared on the wire.
  std::vector<std::pair<MetricId, std::uint64_t>> scalars;
  std::vector<TmHistogramDelta> hist_deltas;
  std::vector<TmLocation> locations;

  bool operator==(const TmInterval&) const = default;

  double seconds() const { return static_cast<double>(t1_ns - t0_ns) * 1e-9; }

  /// The scalar for `id`, or 0 when absent (absent == no change for
  /// counter deltas).
  std::uint64_t scalar(MetricId id) const;
};

struct TmFrame {
  enum class Kind : std::uint8_t {
    kDirectory = 1,
    kInterval = 2,
  };

  Kind kind = Kind::kDirectory;
  std::vector<TmDirectoryEntry> directory;  // when kind == kDirectory
  TmInterval interval;                      // when kind == kInterval

  bool operator==(const TmFrame&) const = default;
};

/// Longest metric / location name the format accepts.
inline constexpr std::uint64_t kTmMaxNameBytes = 4096;
/// Per-location class distributions carry at most this many classes.
inline constexpr std::uint64_t kTmMaxClasses = 64;

// --- Encoders (append to `out`) ---

/// Stream header: magic + version.
void tm_write_header(std::vector<std::uint8_t>& out);

/// A directory frame.
void tm_write_directory(std::vector<std::uint8_t>& out,
                        std::span<const TmDirectoryEntry> directory);

/// The registry's directory as wire entries.
std::vector<TmDirectoryEntry> tm_directory_of(const MetricRegistry& registry);

/// An interval frame, encoded faithfully from the decoded representation
/// (every listed scalar pair and histogram entry is emitted as-is).
void tm_write_interval(std::vector<std::uint8_t>& out,
                       const TmInterval& interval);

/// Convenience: a sampled interval + locations as a compact interval
/// frame (zero scalar deltas and all-zero histogram buckets elided).
void tm_write_interval(std::vector<std::uint8_t>& out,
                       const IntervalSample& sample,
                       std::span<const TmLocation> locations);

/// Re-encode decoded frames as a full stream (header + frames): the fuzz
/// round-trip oracle, and the way captures of decoded streams are saved.
std::vector<std::uint8_t> tm_encode_frames(std::span<const TmFrame> frames);

// --- Decoders (throw ParseError on malformed input) ---

/// Validate the stream header at `offset`, advancing it past the header.
void tm_decode_header(std::span<const std::uint8_t> buf, std::size_t& offset);

/// Decode the next known frame at `offset` into `out`, skipping unknown
/// frame types. Returns false at clean end-of-buffer.
bool tm_decode_frame(std::span<const std::uint8_t> buf, std::size_t& offset,
                     TmFrame& out);

/// Decode a whole stream (header + every frame).
std::vector<TmFrame> tm_decode_stream(std::span<const std::uint8_t> buf);

}  // namespace droppkt::telemetry
