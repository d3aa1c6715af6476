#include "harnesses.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "engine/feed.hpp"
#include "telemetry/wire.hpp"
#include "util/expect.hpp"

namespace droppkt::fuzz {

namespace {

[[noreturn]] void harness_fail(const char* harness, const char* what) {
  std::fprintf(stderr, "fuzz harness %s: %s\n", harness, what);
  std::abort();
}

std::string as_text(const std::uint8_t* data, std::size_t size) {
  return {reinterpret_cast<const char*>(data), size};
}

bool txn_equal(const trace::TlsTransaction& a, const trace::TlsTransaction& b) {
  return a.start_s == b.start_s && a.end_s == b.end_s &&
         a.ul_bytes == b.ul_bytes && a.dl_bytes == b.dl_bytes &&
         a.http_count == b.http_count && a.sni == b.sni;
}

}  // namespace

int one_feed_line(const std::uint8_t* data, std::size_t size) {
  std::istringstream is(as_text(data, size));
  std::string line;
  while (std::getline(is, line)) {
    engine::FeedRecord rec;
    try {
      rec = engine::parse_feed_line(line);
    } catch (const ParseError&) {
      continue;
    }
    std::ostringstream os;
    engine::write_feed_line(rec, os);
    std::string written = os.str();
    written.pop_back();  // trailing '\n'
    engine::FeedRecord back;
    try {
      back = engine::parse_feed_line(written);
    } catch (const ParseError&) {
      harness_fail("feed_line", "writer output rejected by the parser");
    }
    if (back.client != rec.client || !txn_equal(back.txn, rec.txn)) {
      harness_fail("feed_line", "round-trip changed the record");
    }
  }
  return 0;
}

int one_model(const std::uint8_t* data, std::size_t size) {
  core::QoeEstimator est;
  {
    std::istringstream is(as_text(data, size));
    try {
      est = core::QoeEstimator::load(is);
    } catch (const ParseError&) {
      return 0;
    }
  }
  // Whatever the loader accepts must serve, or a monitoring node would
  // throw from a shard worker on its first session.
  try {
    const std::vector<double> row(est.feature_count(), 0.5);
    std::vector<double> proba(static_cast<std::size_t>(core::kNumQoeClasses));
    (void)est.predict_into(row, proba);
    trace::TlsLog log(1);
    log[0].end_s = 40.0;
    log[0].dl_bytes = 1e6;
    (void)est.predict(log);
  } catch (const std::exception&) {
    harness_fail("model", "accepted model threw on predict");
  }
  std::ostringstream first;
  est.save(first);
  std::istringstream in(first.str());
  core::QoeEstimator back;
  try {
    back = core::QoeEstimator::load(in);
  } catch (const ParseError&) {
    harness_fail("model", "writer output rejected by the loader");
  }
  std::ostringstream second;
  back.save(second);
  if (second.str() != first.str()) {
    harness_fail("model", "save/load/save changed the model text");
  }
  return 0;
}

int one_telemetry_wire(const std::uint8_t* data, std::size_t size) {
  std::vector<telemetry::TmFrame> frames;
  try {
    frames =
        telemetry::tm_decode_stream(std::span<const std::uint8_t>(data, size));
  } catch (const ParseError&) {
    return 0;  // rejected cleanly
  }
  // The first decode already dropped unknown tags and frame types, so the
  // decoded frames are fully canonical: re-encoding them must produce a
  // stream the decoder maps back to the identical frame sequence.
  const auto bytes = telemetry::tm_encode_frames(frames);
  std::vector<telemetry::TmFrame> back;
  try {
    back = telemetry::tm_decode_stream(std::span<const std::uint8_t>(bytes));
  } catch (const ParseError&) {
    harness_fail("telemetry_wire", "encoder output rejected by the decoder");
  }
  if (back != frames) {
    harness_fail("telemetry_wire", "round-trip changed the frames");
  }
  return 0;
}

}  // namespace droppkt::fuzz
