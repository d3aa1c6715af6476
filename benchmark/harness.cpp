#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace droppkt::benchmark {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

bool percentile_supported(std::size_t n, double q, std::size_t min_beyond) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > 0 && n - std::min(rank, n) >= min_beyond;
}

std::vector<std::vector<double>> windows(std::span<const double> v,
                                         std::size_t min_size) {
  const std::size_t count = window_count(v.size(), min_size);
  const auto cut = [&](std::size_t w) {
    return v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / count);
  };
  std::vector<std::vector<double>> out;
  for (std::size_t w = 0; w < count; ++w) out.emplace_back(cut(w), cut(w + 1));
  return out;
}

Schedule::Schedule(double first_s, double last_s, std::size_t records,
                   double rate)
    : first_s_(first_s),
      scale_(records > 0 && rate > 0.0 && last_s > first_s
                 ? (last_s - first_s) / (static_cast<double>(records) / rate)
                 : 0.0) {}

std::int64_t Schedule::due_ns(double feed_s) const {
  if (scale_ <= 0.0) return 0;
  return static_cast<std::int64_t>(std::llround((feed_s - first_s_) / scale_ *
                                                1e9));
}

bool step_passes(const LadderStep& step) {
  return step.p99_supported && step.p99_us <= kLatencyLimitUs &&
         step.end_lag_us <= kEndLagLimitUs && step.dropped == 0;
}

double sustained_rate(std::span<const LadderStep> steps) {
  double best = 0.0;
  for (const LadderStep& s : steps) {
    if (!step_passes(s)) break;
    best = s.achieved;
  }
  return best;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kProbeLanes = 4;
constexpr std::size_t kProbeCycle = std::size_t{1} << 21;  // 8 MiB of u32
constexpr std::size_t kProbeSteps = 150'000;
constexpr std::size_t kProbeKeys = std::size_t{1} << 16;
constexpr std::size_t kProbeLines = 60'000;

}  // namespace

MachineProbe::MachineProbe() : lanes_(kProbeLanes) {
  std::uint64_t state = 20201204;
  for (Lane& lane : lanes_) {
    // Sattolo's shuffle of the identity: one cycle through every slot, so
    // the walk never settles into a cache-resident loop.
    lane.next.resize(kProbeCycle);
    for (std::size_t i = 0; i < kProbeCycle; ++i) {
      lane.next[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = kProbeCycle - 1; i > 0; --i) {
      std::swap(lane.next[i], lane.next[splitmix64(state) % i]);
    }
    lane.keys.resize(kProbeKeys);
    for (auto& k : lane.keys) k = splitmix64(state);
    lane.scratch.resize(kProbeKeys);
  }
  char line[64];
  for (std::size_t i = 0; i < kProbeLines; ++i) {
    const std::uint64_t x = splitmix64(state);
    std::snprintf(line, sizeof(line), "%.17g %d\n",
                  static_cast<double>(x % 1'000'000) / 997.0,
                  static_cast<int>(x % 50));
    text_ += line;
  }
}

double MachineProbe::serial() {
  const std::int64_t t0 = now_ns();
  std::istringstream in(text_);
  std::vector<std::unique_ptr<double>> values;
  double value = 0.0;
  int count = 0;
  while (in >> value >> count) {
    values.push_back(std::make_unique<double>(value + count));
  }
  if (values.size() != kProbeLines) {
    throw std::logic_error("machine probe parsed the wrong line count");
  }
  return kProbeSerialMs * 1e6 / static_cast<double>(now_ns() - t0);
}

double MachineProbe::parallel() {
  const auto work = [](Lane& lane) {
    std::uint32_t at = lane.cursor;
    for (std::size_t s = 0; s < kProbeSteps; ++s) at = lane.next[at];
    // The walk's end point seeds the next sample, so it cannot be elided.
    lane.cursor = at;
    std::copy(lane.keys.begin(), lane.keys.end(), lane.scratch.begin());
    std::sort(lane.scratch.begin(), lane.scratch.end());
  };
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    threads.emplace_back(work, std::ref(lanes_[i]));
  }
  work(lanes_[0]);
  for (std::thread& t : threads) t.join();
  return kProbeParallelMs * 1e6 / static_cast<double>(now_ns() - t0);
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), for the printed output digests.
// ---------------------------------------------------------------------------

namespace {

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void sha256_block(std::array<std::uint32_t, 8>& h, const unsigned char* p) {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{p[4 * i]} << 24) | (std::uint32_t{p[4 * i + 1]} << 16) |
           (std::uint32_t{p[4 * i + 2]} << 8) | std::uint32_t{p[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kSha256K[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

}  // namespace

std::string sha256_hex(std::string_view data) {
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t full = data.size() / 64;
  for (std::size_t b = 0; b < full; ++b) sha256_block(h, bytes + 64 * b);
  std::array<unsigned char, 128> tail{};
  const std::size_t rem = data.size() - 64 * full;
  std::copy(bytes + 64 * full, bytes + data.size(), tail.begin());
  tail[rem] = 0x80;
  const std::size_t tail_len = rem + 9 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<unsigned char>(bits >> (8 * i));
  }
  for (std::size_t off = 0; off < tail_len; off += 64) {
    sha256_block(h, tail.data() + off);
  }
  std::string hex;
  char buf[9];
  for (std::uint32_t word : h) {
    std::snprintf(buf, sizeof(buf), "%08x", word);
    hex += buf;
  }
  return hex;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail(1, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  std::printf("metric %-40s %.17g %s\n", name.c_str(), value, unit.c_str());
  metrics_.push_back({name, value, unit});
}

void Report::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "[benchmark] FAIL (%llu): %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail(1, what);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("self-test %-58s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  // Due-time mapping: 1000 records over feed seconds [100, 600] offered at
  // 500 records/s last 2 s of wall time, so feed time runs 250x faster.
  const Schedule sched(100.0, 600.0, 1000, 500.0);
  expect(sched.scale() == 250.0, "schedule scale = feed span / (n / rate)");
  expect(sched.due_ns(100.0) == 0, "first record due at the run start");
  expect(sched.due_ns(600.0) == 2'000'000'000, "last record due at n / rate");
  expect(sched.due_ns(350.0) == 1'000'000'000, "due time is linear in feed time");
  expect(lateness_ns(1'000'500, 1'000'000) == 500, "lateness of a late send");
  expect(lateness_ns(999'000, 1'000'000) == 0, "an early send is not late");
  expect(Schedule(5.0, 5.0, 10, 100.0).due_ns(5.0) == 0,
         "a zero-span feed is due at once");

  // Percentiles: nearest rank, and p99 only with >= 10 samples beyond it.
  std::vector<double> ramp(1000);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i + 1);
  std::reverse(ramp.begin(), ramp.end());
  expect(percentile(ramp, 0.5) == 500.0, "p50 of 1..1000 is 500");
  expect(percentile(ramp, 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile({7.0}, 0.99) == 7.0, "percentile of one sample");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even sample");
  expect(percentile_supported(1000, 0.99), "p99 supported by 1000 samples");
  expect(!percentile_supported(999, 0.99), "p99 unsupported by 999 samples");
  expect(percentile_supported(20, 0.5), "p50 supported by 20 samples");
  expect(!percentile_supported(19, 0.5), "p50 unsupported by 19 samples");
  const std::vector<std::vector<double>> cut = windows(ramp, 400);
  expect(cut.size() == 2 && cut[0].size() == 500 && cut[1].size() == 500 &&
             cut[0].front() == 1000.0 && cut[1].front() == 500.0,
         "1000 samples cut into 2 ordered windows of >= 400");
  expect(windows(ramp, 1000).size() == 1 && windows(ramp, 1001).size() == 1,
         "a sample shorter than a window is one window");
  const auto odd = windows(std::span<const double>(ramp).first(2999), 1000);
  expect(odd.size() == 2 && odd[0].size() == 1499 && odd[1].size() == 1500,
         "2999 samples cut into windows of 1499 and 1500");

  // Ladder: stop at the first failing rate, even if a later one would pass.
  const auto step = [](double rate, double p99, double lag, std::uint64_t drop) {
    return LadderStep{rate, p99, true, lag, drop, 0.99 * rate};
  };
  const std::vector<LadderStep> ladder = {
      step(1e5, 900.0, 10.0, 0), step(2e5, 49'000.0, 49'000.0, 0),
      step(3e5, 51'000.0, 10.0, 0), step(4e5, 900.0, 10.0, 0)};
  expect(sustained_rate(ladder) == 0.99 * 2e5,
         "ladder stops at the first failure");
  expect(!step_passes(step(1e5, 10.0, 50'001.0, 0)), "late generator fails a rate");
  expect(!step_passes(step(1e5, 10.0, 10.0, 1)), "a dropped record fails a rate");
  expect(!step_passes(LadderStep{1e5, 10.0, false, 10.0, 0, 1e5}),
         "an unsupported p99 fails a rate");
  expect(sustained_rate(std::vector<LadderStep>{step(1e5, 6e4, 0.0, 0)}) == 0.0,
         "a failing first rate sustains nothing");

  // Heap peak accounting.
  const std::int64_t base = reset_heap_peak();
  {
    std::vector<char> block(1 << 20);
    volatile char* touch = block.data();
    touch[0] = 1;
    expect(heap_live_bytes() - base >= (1 << 20), "a 1 MiB block is live");
  }
  expect(heap_live_bytes() == base, "freeing it returns live bytes to base");
  expect(heap_peak_bytes() - base >= (1 << 20), "the peak keeps the 1 MiB");
  expect(reset_heap_peak() == base && heap_peak_bytes() == base,
         "a reset restarts the peak at the live bytes");

  expect(sha256_hex("abc") ==
             "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
         "sha256(\"abc\")");
  expect(sha256_hex(std::string(56, 'a')).substr(0, 8) == "b35439a4",
         "sha256 of a message needing two padding blocks");
  return failures;
}

}  // namespace droppkt::benchmark
