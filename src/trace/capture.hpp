// Feed capture: the record/replay half of the telemetry plane's wire
// story. A capture is a proxy feed frozen to disk — every (client, TLS
// transaction) record in global start-time order, interleaved with the
// interval markers the live run's watermark cadence produced — so a
// replay (engine/replay.hpp) can push the identical record sequence
// through a fresh engine and reproduce the live alert sequence
// byte-for-byte, at line rate or any time scale.
//
// Binary format "DPFC" v1, the repo's one binary record format. Every
// length is validated against the bytes actually present before any
// allocation, counts are checked against a per-event minimum size,
// numeric fields are validated (finite, ordered), and malformed input
// throws droppkt::ParseError — never a crash. fuzz/fuzz_feed_capture.cpp
// holds the reader to that.
//
//   "DPFC" magic, u32 version, u64 event count, then per event
//     u8 kind (0 = record, 1 = marker)
//     record: u32 client length (1..4096), client bytes,
//             f64 start_s, end_s, ul_bytes, dl_bytes,
//             u64 http_count, u32 sni length, sni bytes
//     marker: u64 marker sequence, f64 marker feed time
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/records.hpp"

namespace droppkt::trace {

/// One captured feed event: a proxy record or an interval marker.
struct CaptureEvent {
  enum class Kind : std::uint8_t { kRecord = 0, kMarker = 1 };
  Kind kind = Kind::kRecord;
  // kRecord fields.
  std::string client;
  TlsTransaction txn;
  // kMarker fields: dense capture-order sequence and the feed time the
  // live run's watermark cadence reached.
  std::uint64_t marker_seq = 0;
  double marker_time_s = 0.0;
};

/// A captured feed: events in capture order (records in global start-time
/// order, markers at the instants the capturing run emitted them).
using FeedCapture = std::vector<CaptureEvent>;

/// Serialize a capture ("DPFC" v1). Throws ContractViolation when an
/// event violates the format limits (empty/oversized client, oversized
/// SNI, non-finite times).
std::vector<std::uint8_t> feed_capture_bytes(const FeedCapture& capture);
void write_feed_capture_file(const FeedCapture& capture,
                             const std::string& path);

/// Decode a capture. Throws droppkt::ParseError on any malformed input:
/// truncated buffer, bad magic/version, event count or string length
/// inconsistent with the bytes present, unknown event kind, non-finite
/// times, end < start, negative byte counts, or trailing bytes.
FeedCapture read_feed_capture(std::span<const std::uint8_t> buffer);
FeedCapture read_feed_capture_file(const std::string& path);

}  // namespace droppkt::trace
