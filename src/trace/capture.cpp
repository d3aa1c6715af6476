#include "trace/capture.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>

#include "util/expect.hpp"

namespace droppkt::trace {

namespace {

constexpr char kMagic[4] = {'D', 'P', 'F', 'C'};
constexpr std::uint32_t kVersion = 1;
/// The smallest possible event: u8 kind + u64 seq + f64 time (a marker).
constexpr std::uint64_t kMinEventBytes = 1 + 8 + 8;
/// Client ids are operator-assigned names ("cell-3/sub-17"), not payloads.
constexpr std::uint64_t kMaxClientBytes = 4096;
/// A ClientHello SNI is a DNS name; anything past this is hostile input.
constexpr std::uint64_t kMaxSniBytes = 64 * 1024;

[[noreturn]] void parse_fail(const std::string& what) {
  throw ParseError("read_feed_capture: " + what);
}

/// Bounds-checked cursor over the untrusted buffer: all length fields
/// widen to u64 before any comparison or arithmetic, so a narrow
/// attacker-supplied length can never wrap a size computation.
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

}  // namespace

std::vector<std::uint8_t> feed_capture_bytes(const FeedCapture& capture) {
  std::vector<std::uint8_t> out;
  append_raw(out, kMagic, sizeof kMagic);
  append_raw(out, &kVersion, sizeof kVersion);
  const std::uint64_t count = capture.size();
  append_raw(out, &count, sizeof count);
  for (const CaptureEvent& ev : capture) {
    const auto kind = static_cast<std::uint8_t>(ev.kind);
    append_raw(out, &kind, sizeof kind);
    if (ev.kind == CaptureEvent::Kind::kRecord) {
      DROPPKT_EXPECT(
          !ev.client.empty() && ev.client.size() <= kMaxClientBytes,
          "feed_capture_bytes: client id empty or over the format limit");
      DROPPKT_EXPECT(ev.txn.sni.size() <= kMaxSniBytes,
                     "feed_capture_bytes: SNI exceeds the wire-format limit");
      DROPPKT_EXPECT(
          std::isfinite(ev.txn.start_s) && std::isfinite(ev.txn.end_s),
          "feed_capture_bytes: non-finite transaction times");
      const auto client_len = static_cast<std::uint32_t>(ev.client.size());
      append_raw(out, &client_len, sizeof client_len);
      append_raw(out, ev.client.data(), ev.client.size());
      append_raw(out, &ev.txn.start_s, sizeof ev.txn.start_s);
      append_raw(out, &ev.txn.end_s, sizeof ev.txn.end_s);
      append_raw(out, &ev.txn.ul_bytes, sizeof ev.txn.ul_bytes);
      append_raw(out, &ev.txn.dl_bytes, sizeof ev.txn.dl_bytes);
      const std::uint64_t http = ev.txn.http_count;
      append_raw(out, &http, sizeof http);
      const auto sni_len = static_cast<std::uint32_t>(ev.txn.sni.size());
      append_raw(out, &sni_len, sizeof sni_len);
      append_raw(out, ev.txn.sni.data(), ev.txn.sni.size());
    } else {
      DROPPKT_EXPECT(std::isfinite(ev.marker_time_s),
                     "feed_capture_bytes: non-finite marker time");
      append_raw(out, &ev.marker_seq, sizeof ev.marker_seq);
      append_raw(out, &ev.marker_time_s, sizeof ev.marker_time_s);
    }
  }
  return out;
}

void write_feed_capture_file(const FeedCapture& capture,
                             const std::string& path) {
  std::ofstream ofs(path, std::ios::binary);
  if (!ofs) {
    throw std::runtime_error("write_feed_capture_file: cannot open " + path);
  }
  const auto bytes = feed_capture_bytes(capture);
  ofs.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!ofs) {
    throw std::runtime_error("write_feed_capture_file: write failed " + path);
  }
}

FeedCapture read_feed_capture(std::span<const std::uint8_t> buffer) {
  ByteReader r(buffer);
  char magic[4] = {};
  r.bytes(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    parse_fail("bad magic (not a DPFC stream)");
  }
  const std::uint32_t version = r.u32("version");
  if (version != kVersion) {
    parse_fail("unsupported version " + std::to_string(version));
  }
  const std::uint64_t count = r.u64("event count");
  // Every event costs at least kMinEventBytes, so a count the buffer
  // cannot possibly hold is rejected before any allocation.
  if (count > r.remaining() / kMinEventBytes) {
    parse_fail("event count " + std::to_string(count) +
               " exceeds what the buffer can hold");
  }
  FeedCapture capture;
  capture.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CaptureEvent ev;
    const std::uint8_t kind = r.u8("event kind");
    if (kind == static_cast<std::uint8_t>(CaptureEvent::Kind::kRecord)) {
      ev.kind = CaptureEvent::Kind::kRecord;
      const std::uint64_t client_len = r.u32("client length");
      if (client_len == 0 || client_len > kMaxClientBytes) {
        parse_fail("client length " + std::to_string(client_len) +
                   " outside [1, " + std::to_string(kMaxClientBytes) + "]");
      }
      ev.client = r.str(client_len, "client");
      ev.txn.start_s = r.f64("start_s");
      ev.txn.end_s = r.f64("end_s");
      ev.txn.ul_bytes = r.f64("ul_bytes");
      ev.txn.dl_bytes = r.f64("dl_bytes");
      const std::uint64_t http = r.u64("http_count");
      if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
        if (http > std::numeric_limits<std::size_t>::max()) {
          parse_fail("http_count overflows size_t");
        }
      }
      ev.txn.http_count = static_cast<std::size_t>(http);
      if (!std::isfinite(ev.txn.start_s) || !std::isfinite(ev.txn.end_s)) {
        parse_fail("non-finite transaction times");
      }
      if (ev.txn.end_s < ev.txn.start_s) {
        parse_fail("transaction end precedes start");
      }
      if (!(ev.txn.ul_bytes >= 0.0) || !(ev.txn.dl_bytes >= 0.0)) {
        parse_fail("negative or non-finite byte counts");
      }
      const std::uint64_t sni_len = r.u32("sni length");
      if (sni_len > kMaxSniBytes) {
        parse_fail("SNI length " + std::to_string(sni_len) + " exceeds limit");
      }
      ev.txn.sni = r.str(sni_len, "sni");
    } else if (kind == static_cast<std::uint8_t>(CaptureEvent::Kind::kMarker)) {
      ev.kind = CaptureEvent::Kind::kMarker;
      ev.marker_seq = r.u64("marker sequence");
      ev.marker_time_s = r.f64("marker time");
      if (!std::isfinite(ev.marker_time_s)) {
        parse_fail("non-finite marker time");
      }
    } else {
      parse_fail("unknown event kind " + std::to_string(kind));
    }
    capture.push_back(std::move(ev));
  }
  if (r.remaining() != 0) {
    parse_fail(std::to_string(r.remaining()) +
               " trailing bytes after the last event");
  }
  return capture;
}

FeedCapture read_feed_capture_file(const std::string& path) {
  std::ifstream ifs(path, std::ios::binary);
  if (!ifs) {
    throw std::runtime_error("read_feed_capture_file: cannot open " + path);
  }
  std::vector<std::uint8_t> buf{std::istreambuf_iterator<char>(ifs),
                                std::istreambuf_iterator<char>()};
  return read_feed_capture(std::span<const std::uint8_t>(buf));
}

}  // namespace droppkt::trace
