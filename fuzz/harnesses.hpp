// One-input entry points for the untrusted-input decoders.
//
// Each function is the body of a libFuzzer target (fuzz_<name>.cpp wraps
// it in LLVMFuzzerTestOneInput) and is also linked into
// tests/integration/fuzz_regression_test.cpp, which replays the checked-in
// corpus and every committed crash regression through the exact harness
// code. Contract: a harness returns 0 for any input — decoders may reject
// bytes with droppkt::ParseError / droppkt::ContractViolation, but must
// never crash, corrupt memory, loop forever, or break round-trip
// invariants (a harness calls std::abort on those, which the fuzzer and
// the sanitizers report).
#pragma once

#include <cstddef>
#include <cstdint>

namespace droppkt::fuzz {

/// Proxy feed text lines: parse each line; successful parses must
/// round-trip bit-exactly through write_feed_line.
int one_feed_line(const std::uint8_t* data, std::size_t size);

/// Estimator model file (the one format serving nodes load): offered to
/// core::QoeEstimator::load; anything accepted must predict a
/// feature_count() row and a TLS log without any exception, and its
/// save -> load -> save must be byte-identical.
int one_model(const std::uint8_t* data, std::size_t size);

/// droppkt-tm v1 telemetry stream: decode (unknown tags and frame types
/// skipped via their length prefix), re-encode the decoded frames with
/// tm_encode_frames, re-decode, compare frame-for-frame.
int one_telemetry_wire(const std::uint8_t* data, std::size_t size);

}  // namespace droppkt::fuzz
