// The benchmark's own arithmetic and process probes: order statistics with
// the "ten samples beyond" rule, the open-loop schedule, the ladder stop
// rule, heap accounting, CPU time, the machine probe, SHA-256 and the
// result report. The arithmetic is checked on canned inputs by --self-test.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace droppkt::benchmark {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);

/// Nearest-rank q-quantile (q in (0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// True when at least `min_beyond` samples rank above the q-quantile, the
/// condition for reporting that percentile at all (p99 needs n >= 1000).
bool percentile_supported(std::size_t n, double q,
                          std::size_t min_beyond = 10);

/// Verdicts per latency window: enough for a p99 with ten beyond it.
inline constexpr std::size_t kLatencyWindow = 1000;

/// Cut `v` (samples in arrival order) into as many equal consecutive
/// windows of at least `min_size` samples as fit; all of `v` in one window
/// when it holds fewer. Latency percentiles are taken per window and the
/// median over windows reported: a scheduler stall of the shared machine
/// then spoils the windows it falls in rather than a whole pass.
std::vector<std::vector<double>> windows(std::span<const double> v,
                                         std::size_t min_size = kLatencyWindow);
/// How many windows `windows` cuts `n` samples into.
inline std::size_t window_count(std::size_t n,
                                std::size_t min_size = kLatencyWindow) {
  return n < min_size ? 1 : n / min_size;
}

/// Open-loop schedule. Record i is due (start_s_i - first_s) / scale
/// seconds after the run starts; scale is fixed so that the whole feed is
/// offered at `rate` records/s on average. The generator never waits for the
/// system, so a stall delays every later record past its due time.
class Schedule {
 public:
  Schedule(double first_s, double last_s, std::size_t records, double rate);

  /// Offset of feed instant `feed_s` from the run start, in ns.
  std::int64_t due_ns(double feed_s) const;
  /// Feed seconds per wall second.
  double scale() const { return scale_; }

 private:
  double first_s_;
  double scale_;
};

/// How late an event at `at_ns` is against `due_ns` (0 when early).
inline std::int64_t lateness_ns(std::int64_t at_ns, std::int64_t due_ns) {
  return at_ns > due_ns ? at_ns - due_ns : 0;
}

/// One rung of the fixed-rate ladder.
struct LadderStep {
  double rate = 0.0;           // offered records/s
  double p99_us = 0.0;         // verdict latency p99
  bool p99_supported = false;  // >= 10 samples beyond p99
  double end_lag_us = 0.0;     // generator lateness at the last record
  std::uint64_t dropped = 0;   // records offered but not processed
  double achieved = 0.0;       // records/s processed: offered / wall time
};

inline constexpr double kLatencyLimitUs = 50'000.0;
inline constexpr double kEndLagLimitUs = 50'000.0;

/// A rate passes when p99 verdict latency and end-of-feed generator lag are
/// both within 50 ms and no record was lost.
bool step_passes(const LadderStep& step);

/// Achieved rate of the highest step of an ascending ladder before its
/// first failing step; 0 when the first step fails. Steps after the first
/// failure are ignored (the benchmark stops the ladder there).
double sustained_rate(std::span<const LadderStep> steps);

/// Bytes live on the heap (operator new, usable sizes; see heap.cpp).
std::int64_t heap_live_bytes();
/// Restart peak tracking at the bytes live now, and return them.
std::int64_t reset_heap_peak();
/// Most bytes live at once since the last reset.
std::int64_t heap_peak_bytes();

/// User + system CPU seconds of the whole process (getrusage).
double process_cpu_s();

/// How fast this shared machine runs right now relative to when it is
/// quiet, measured with fixed pieces of benchmark-owned work that share no
/// code with droppkt. Each factor is the quiet probe time over the measured
/// one, so below 1 while the machine runs slow.
class MachineProbe {
 public:
  MachineProbe();
  /// For work spread over 4 threads (the streaming deployment's thread
  /// count), the calling thread being one of them: each walks its own
  /// 8 MiB random cycle and sorts 64 K integers. That follows how much CPU
  /// and memory the machine gives busy threads at the moment.
  double parallel();
  /// For work on the calling thread alone: parse 60 K lines of decimal
  /// numbers through a std::istringstream, one heap block per value. That
  /// is the kind of work set-up does (reading a saved model), and it slows
  /// with it: the calling thread's speed flips between two levels about 2x
  /// apart within a second, which the 4-thread probe did not follow.
  double serial();

 private:
  struct Lane {
    std::vector<std::uint32_t> next;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> scratch;
    std::uint32_t cursor = 0;
  };
  std::vector<Lane> lanes_;
  std::string text_;
};

/// Probe times of the reference machine (Intel Xeon, 4 vCPUs, KVM guest)
/// when quiet.
inline constexpr double kProbeParallelMs = 22.0;
inline constexpr double kProbeSerialMs = 24.0;

/// Per-rep values of one timing metric, as measured and as scaled to the
/// machine's quiet speed by a probe factor sampled just before the rep.
struct Scaled {
  std::vector<double> raw;
  std::vector<double> scaled;

  /// A duration, which grows when the machine slows down.
  void add_time(double value, double factor) {
    raw.push_back(value);
    scaled.push_back(value * factor);
  }
  /// A rate, which shrinks when the machine slows down.
  void add_rate(double value, double factor) {
    raw.push_back(value);
    scaled.push_back(value / factor);
  }
};

std::string sha256_hex(std::string_view data);

/// Accumulates the run's verdict: metrics by name with their units, the
/// number of operations attempted and how many failed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Count `n` failures, explained by `why` on stderr.
  void fail(std::uint64_t n, const std::string& why);
  /// One failure unless `ok`.
  void check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }
  /// The single-line JSON result object.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Checks the functions above on canned inputs; returns the failure count.
int self_test();

}  // namespace droppkt::benchmark
