#include "telemetry/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/expect.hpp"

namespace droppkt::telemetry {

namespace {

constexpr char kMagic[4] = {'D', 'P', 'T', 'M'};
constexpr std::uint32_t kVersion = 1;

constexpr std::uint8_t kTagHeader = 1;
constexpr std::uint8_t kTagScalars = 2;
constexpr std::uint8_t kTagHistogram = 3;
constexpr std::uint8_t kTagLocations = 4;

// Smallest possible wire footprint per element — the denominators of the
// count-versus-remaining checks that reject allocation bombs before any
// reserve.
constexpr std::uint64_t kMinDirectoryEntryBytes = 4 + 1 + 2 + 2;
constexpr std::uint64_t kMinScalarPairBytes = 4 + 8;
constexpr std::uint64_t kMinHistogramPairBytes = 1 + 8;
constexpr std::uint64_t kMinLocationBytes = 2 + 1 + 3 * 8 + 1;

[[noreturn]] void parse_fail(const std::string& what) {
  throw ParseError("tm_decode: " + what);
}

/// Bounds-checked cursor over the untrusted buffer: every length is
/// widened to u64 before comparison so narrow attacker-supplied fields
/// cannot wrap.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint64_t remaining() const { return buf_.size() - pos_; }

  void bytes(void* out, std::uint64_t n, const char* what) {
    if (n > remaining()) {
      parse_fail(std::string("truncated input reading ") + what);
    }
    std::memcpy(out, buf_.data() + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
  }

  std::uint8_t u8(const char* what) {
    std::uint8_t v = 0;
    bytes(&v, sizeof v, what);
    return v;
  }

  std::uint16_t u16(const char* what) {
    std::uint16_t v = 0;
    bytes(&v, sizeof v, what);
    return v;
  }

  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    bytes(&v, sizeof v, what);
    return v;
  }

  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    bytes(&v, sizeof v, what);
    return v;
  }

  double f64(const char* what) {
    double v = 0.0;
    bytes(&v, sizeof v, what);
    return v;
  }

  std::string str(std::uint64_t n, const char* what) {
    if (n > remaining()) {
      parse_fail(std::string("truncated input reading ") + what);
    }
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// A sub-reader over the next `n` bytes, consuming them from this one.
  ByteReader slice(std::uint64_t n, const char* what) {
    if (n > remaining()) {
      parse_fail(std::string("truncated input reading ") + what);
    }
    ByteReader sub(buf_.subspan(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return sub;
  }

  void skip(std::uint64_t n, const char* what) {
    if (n > remaining()) {
      parse_fail(std::string("truncated input skipping ") + what);
    }
    pos_ += static_cast<std::size_t>(n);
  }

  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

void append_raw(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  if (n == 0) return;
  const std::size_t old = out.size();
  out.resize(old + n);
  std::memcpy(out.data() + old, p, n);
}

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  append_raw(out, &v, sizeof v);
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  append_raw(out, &v, sizeof v);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_raw(out, &v, sizeof v);
}

void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_raw(out, &v, sizeof v);
}

void append_str16(std::vector<std::uint8_t>& out, const std::string& s,
                  const char* what) {
  DROPPKT_EXPECT(s.size() <= kTmMaxNameBytes,
                 std::string("tm_write: ") + what + " exceeds the name limit");
  append_u16(out, static_cast<std::uint16_t>(s.size()));
  append_raw(out, s.data(), s.size());
}

/// Patch a placeholder u32 length at `at` with the bytes appended since.
void patch_len(std::vector<std::uint8_t>& out, std::size_t at) {
  const auto len = static_cast<std::uint32_t>(out.size() - (at + 4));
  std::memcpy(out.data() + at, &len, sizeof len);
}

void append_location(std::vector<std::uint8_t>& out, const TmLocation& loc) {
  DROPPKT_EXPECT(loc.class_counts.size() <= kTmMaxClasses,
                 "tm_write: location class count exceeds the wire limit");
  DROPPKT_EXPECT(std::isfinite(loc.rate_low) && std::isfinite(loc.rate_high) &&
                     std::isfinite(loc.effective_sessions),
                 "tm_write: location rates must be finite");
  append_str16(out, loc.name, "location name");
  append_u8(out, loc.degraded ? 1 : 0);
  append_f64(out, loc.rate_low);
  append_f64(out, loc.rate_high);
  append_f64(out, loc.effective_sessions);
  append_u8(out, static_cast<std::uint8_t>(loc.class_counts.size()));
  for (const std::uint64_t c : loc.class_counts) append_u64(out, c);
}

TmLocation decode_location(ByteReader& r) {
  TmLocation loc;
  const std::uint64_t name_len = r.u16("location name length");
  if (name_len > kTmMaxNameBytes) {
    parse_fail("location name length exceeds limit");
  }
  loc.name = r.str(name_len, "location name");
  const std::uint8_t degraded = r.u8("degraded flag");
  if (degraded > 1) parse_fail("degraded flag must be 0 or 1");
  loc.degraded = degraded == 1;
  loc.rate_low = r.f64("rate_low");
  loc.rate_high = r.f64("rate_high");
  loc.effective_sessions = r.f64("effective_sessions");
  if (!std::isfinite(loc.rate_low) || !std::isfinite(loc.rate_high) ||
      !std::isfinite(loc.effective_sessions)) {
    parse_fail("non-finite location rates");
  }
  const std::uint64_t classes = r.u8("class count");
  if (classes > kTmMaxClasses) parse_fail("class count exceeds limit");
  loc.class_counts.resize(static_cast<std::size_t>(classes));
  for (auto& c : loc.class_counts) c = r.u64("class count value");
  return loc;
}

void decode_directory_payload(ByteReader& r, std::vector<TmDirectoryEntry>& out) {
  const std::uint64_t count = r.u32("directory count");
  if (count > r.remaining() / kMinDirectoryEntryBytes) {
    parse_fail("directory count " + std::to_string(count) +
               " exceeds what the frame can hold");
  }
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TmDirectoryEntry e;
    e.id = r.u32("metric id");
    const std::uint8_t kind = r.u8("metric kind");
    if (kind > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      parse_fail("unknown metric kind " + std::to_string(kind));
    }
    e.kind = static_cast<MetricKind>(kind);
    const std::uint64_t name_len = r.u16("metric name length");
    if (name_len > kTmMaxNameBytes) parse_fail("metric name length exceeds limit");
    e.name = r.str(name_len, "metric name");
    const std::uint64_t unit_len = r.u16("metric unit length");
    if (unit_len > kTmMaxNameBytes) parse_fail("metric unit length exceeds limit");
    e.unit = r.str(unit_len, "metric unit");
    out.push_back(std::move(e));
  }
  if (r.remaining() != 0) parse_fail("trailing bytes in directory frame");
}

void decode_interval_payload(ByteReader& r, TmInterval& out) {
  out = TmInterval{};
  while (r.remaining() > 0) {
    const std::uint8_t tag = r.u8("field tag");
    const std::uint64_t field_len = r.u32("field length");
    ByteReader f = r.slice(field_len, "field payload");
    switch (tag) {
      case kTagHeader: {
        out.seq = f.u64("seq");
        out.t0_ns = f.u64("t0_ns");
        out.t1_ns = f.u64("t1_ns");
        if (out.t1_ns < out.t0_ns) parse_fail("interval end precedes start");
        break;
      }
      case kTagScalars: {
        const std::uint64_t count = f.u32("scalar count");
        if (count > f.remaining() / kMinScalarPairBytes) {
          parse_fail("scalar count " + std::to_string(count) +
                     " exceeds what the field can hold");
        }
        out.scalars.reserve(out.scalars.size() +
                            static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          const MetricId id = f.u32("scalar id");
          const std::uint64_t value = f.u64("scalar value");
          out.scalars.emplace_back(id, value);
        }
        break;
      }
      case kTagHistogram: {
        TmHistogramDelta h;
        h.id = f.u32("histogram id");
        const std::uint64_t pairs = f.u16("histogram pair count");
        if (pairs > f.remaining() / kMinHistogramPairBytes) {
          parse_fail("histogram pair count exceeds what the field can hold");
        }
        for (std::uint64_t i = 0; i < pairs; ++i) {
          const std::uint8_t bucket = f.u8("histogram bucket");
          if (bucket >= Histogram::kBuckets) {
            parse_fail("histogram bucket index out of range");
          }
          h.deltas[bucket] += f.u64("histogram delta");
        }
        out.hist_deltas.push_back(h);
        break;
      }
      case kTagLocations: {
        const std::uint64_t count = f.u16("location count");
        if (count > f.remaining() / kMinLocationBytes) {
          parse_fail("location count exceeds what the field can hold");
        }
        out.locations.reserve(out.locations.size() +
                              static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          out.locations.push_back(decode_location(f));
        }
        break;
      }
      default:
        // Forward compatibility: unknown tags skip via their length.
        f.skip(f.remaining(), "unknown field");
        break;
    }
    if (f.remaining() != 0) {
      parse_fail("trailing bytes in interval field tag " + std::to_string(tag));
    }
  }
}

}  // namespace

std::uint64_t TmInterval::scalar(MetricId id) const {
  for (const auto& [sid, value] : scalars) {
    if (sid == id) return value;
  }
  return 0;
}

void tm_write_header(std::vector<std::uint8_t>& out) {
  append_raw(out, kMagic, sizeof kMagic);
  append_u32(out, kVersion);
}

void tm_write_directory(std::vector<std::uint8_t>& out,
                        std::span<const TmDirectoryEntry> directory) {
  append_u8(out, static_cast<std::uint8_t>(TmFrame::Kind::kDirectory));
  const std::size_t len_at = out.size();
  append_u32(out, 0);  // patched below
  append_u32(out, static_cast<std::uint32_t>(directory.size()));
  for (const TmDirectoryEntry& e : directory) {
    append_u32(out, e.id);
    append_u8(out, static_cast<std::uint8_t>(e.kind));
    append_str16(out, e.name, "metric name");
    append_str16(out, e.unit, "metric unit");
  }
  patch_len(out, len_at);
}

std::vector<TmDirectoryEntry> tm_directory_of(const MetricRegistry& registry) {
  std::vector<TmDirectoryEntry> out;
  out.reserve(registry.size());
  for (const MetricDesc& desc : registry.directory()) {
    TmDirectoryEntry e;
    e.id = desc.id;
    e.kind = desc.kind;
    e.name = desc.name;
    e.unit = desc.unit;
    out.push_back(std::move(e));
  }
  return out;
}

void tm_write_interval(std::vector<std::uint8_t>& out,
                       const TmInterval& interval) {
  append_u8(out, static_cast<std::uint8_t>(TmFrame::Kind::kInterval));
  const std::size_t frame_len_at = out.size();
  append_u32(out, 0);

  append_u8(out, kTagHeader);
  const std::size_t header_len_at = out.size();
  append_u32(out, 0);
  append_u64(out, interval.seq);
  append_u64(out, interval.t0_ns);
  append_u64(out, interval.t1_ns);
  patch_len(out, header_len_at);

  if (!interval.scalars.empty()) {
    append_u8(out, kTagScalars);
    const std::size_t len_at = out.size();
    append_u32(out, 0);
    append_u32(out, static_cast<std::uint32_t>(interval.scalars.size()));
    for (const auto& [id, value] : interval.scalars) {
      append_u32(out, id);
      append_u64(out, value);
    }
    patch_len(out, len_at);
  }

  for (const TmHistogramDelta& h : interval.hist_deltas) {
    append_u8(out, kTagHistogram);
    const std::size_t len_at = out.size();
    append_u32(out, 0);
    append_u32(out, h.id);
    std::uint16_t pairs = 0;
    for (const std::uint64_t d : h.deltas) pairs += d != 0 ? 1 : 0;
    append_u16(out, pairs);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.deltas[b] == 0) continue;
      append_u8(out, static_cast<std::uint8_t>(b));
      append_u64(out, h.deltas[b]);
    }
    patch_len(out, len_at);
  }

  if (!interval.locations.empty()) {
    DROPPKT_EXPECT(interval.locations.size() <=
                       std::numeric_limits<std::uint16_t>::max(),
                   "tm_write: too many locations for one interval frame");
    append_u8(out, kTagLocations);
    const std::size_t len_at = out.size();
    append_u32(out, 0);
    append_u16(out, static_cast<std::uint16_t>(interval.locations.size()));
    for (const TmLocation& loc : interval.locations) {
      append_location(out, loc);
    }
    patch_len(out, len_at);
  }

  patch_len(out, frame_len_at);
}

void tm_write_interval(std::vector<std::uint8_t>& out,
                       const IntervalSample& sample,
                       std::span<const TmLocation> locations) {
  TmInterval iv;
  iv.seq = sample.seq;
  iv.t0_ns = sample.t0_ns;
  iv.t1_ns = sample.t1_ns;
  for (MetricId id = 0; id < sample.scalars.size(); ++id) {
    if (sample.scalars[id] != 0) iv.scalars.emplace_back(id, sample.scalars[id]);
  }
  for (const auto& [id, deltas] : sample.hist_deltas) {
    bool any = false;
    for (const std::uint64_t d : deltas) any = any || d != 0;
    if (!any) continue;
    TmHistogramDelta h;
    h.id = id;
    h.deltas = deltas;
    iv.hist_deltas.push_back(h);
  }
  iv.locations.assign(locations.begin(), locations.end());
  tm_write_interval(out, iv);
}

std::vector<std::uint8_t> tm_encode_frames(std::span<const TmFrame> frames) {
  std::vector<std::uint8_t> out;
  tm_write_header(out);
  for (const TmFrame& frame : frames) {
    if (frame.kind == TmFrame::Kind::kDirectory) {
      tm_write_directory(out, frame.directory);
    } else {
      tm_write_interval(out, frame.interval);
    }
  }
  return out;
}

void tm_decode_header(std::span<const std::uint8_t> buf, std::size_t& offset) {
  if (offset > buf.size()) parse_fail("offset past end of buffer");
  ByteReader r(buf.subspan(offset));
  char magic[4] = {};
  r.bytes(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    parse_fail("bad magic (not a droppkt-tm stream)");
  }
  const std::uint32_t version = r.u32("version");
  if (version != kVersion) {
    parse_fail("unsupported version " + std::to_string(version));
  }
  offset += r.pos();
}

bool tm_decode_frame(std::span<const std::uint8_t> buf, std::size_t& offset,
                     TmFrame& out) {
  if (offset > buf.size()) parse_fail("offset past end of buffer");
  ByteReader r(buf.subspan(offset));
  while (r.remaining() > 0) {
    const std::uint8_t type = r.u8("frame type");
    const std::uint64_t payload_len = r.u32("frame length");
    ByteReader payload = r.slice(payload_len, "frame payload");
    if (type == static_cast<std::uint8_t>(TmFrame::Kind::kDirectory)) {
      out.kind = TmFrame::Kind::kDirectory;
      out.interval = TmInterval{};
      decode_directory_payload(payload, out.directory);
    } else if (type == static_cast<std::uint8_t>(TmFrame::Kind::kInterval)) {
      out.kind = TmFrame::Kind::kInterval;
      out.directory.clear();
      decode_interval_payload(payload, out.interval);
    } else {
      // Forward compatibility: unknown frame types skip via their length.
      continue;
    }
    offset += r.pos();
    return true;
  }
  offset += r.pos();
  return false;
}

std::vector<TmFrame> tm_decode_stream(std::span<const std::uint8_t> buf) {
  std::size_t offset = 0;
  tm_decode_header(buf, offset);
  std::vector<TmFrame> frames;
  TmFrame frame;
  while (tm_decode_frame(buf, offset, frame)) {
    frames.push_back(frame);
  }
  return frames;
}

}  // namespace droppkt::telemetry
