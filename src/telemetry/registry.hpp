// The unified telemetry plane's metric registry: one home for every
// counter, gauge and histogram the engine, monitor, alert and ML layers
// used to keep in scattered per-layer stats structs.
//
// Design contract (what makes this safe to put on the ingest hot path):
//   * Instruments are plain relaxed atomics. An update is one
//     fetch_add/store — no lock, no allocation, no fence stronger than
//     relaxed — so DROPPKT_NOALLOC record paths can bump them freely.
//   * Registration is a setup-phase operation: all counter()/gauge()/
//     histogram() calls happen single-threaded before any concurrent
//     reader or writer touches the registry (the engine registers in its
//     constructor, sinks in bind_telemetry()). After setup the directory
//     is immutable, which is why lookups and snapshots need no lock.
//   * Instrument references are stable for the registry's lifetime
//     (deque-backed storage), so hot paths hold raw pointers.
//
// Snapshots read every instrument with relaxed loads: each value is
// individually coherent, which is all interval diffing (telemetry/
// sampler.hpp) and the stats views need.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace droppkt::telemetry {

/// Monotonic event count. Single or multi writer; wait-free updates.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Publish an absolute total — the block-drain idiom where one owning
  /// thread accumulates locally and stores the running total once per
  /// block instead of one RMW per event. Single-writer only.
  void store(std::uint64_t total) { v_.store(total, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value instrument (queue depth, tracked locations, ...).
class Gauge {
 public:
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Log2-bucketed histogram of u64 samples (nanosecond latencies in
/// practice). record() is wait-free; counts() can be read concurrently —
/// each bucket is individually coherent, which is all a percentile
/// estimate needs.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  using Counts = std::array<std::uint64_t, kBuckets>;

  void record(std::uint64_t value);

  /// Current bucket counts.
  Counts counts() const;

  /// Accumulate this histogram's counts into `into` (cross-shard merge).
  void add_to(Counts& into) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Quantile estimate (q in [0,1]) over merged bucket counts: the
/// geometric midpoint of the bucket holding the q-th sample. 0 when the
/// histogram is empty.
double histogram_quantile(const Histogram::Counts& counts, double q);

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// Dense id assigned in registration order — the wire protocol's key.
using MetricId = std::uint32_t;

struct MetricDesc {
  MetricId id = 0;
  MetricKind kind = MetricKind::kCounter;
  std::string name;  // dotted path, e.g. "engine.shard0.records"
  std::string unit;  // "" for plain counts
};

/// The typed instrument directory. See the header comment for the
/// registration/update threading contract.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Register (setup phase, single-threaded). Names must be unique across
  /// all kinds; a duplicate registration throws ContractViolation.
  Counter& counter(std::string_view name, std::string_view unit = "");
  Gauge& gauge(std::string_view name, std::string_view unit = "");
  Histogram& histogram(std::string_view name, std::string_view unit = "");

  /// Every registered metric, in id order (ids are dense, 0..size()-1).
  const std::vector<MetricDesc>& directory() const { return directory_; }
  std::size_t size() const { return directory_.size(); }

  /// Descriptor by name; nullptr when unregistered.
  const MetricDesc* find(std::string_view name) const;

  /// Scalar value of a counter or gauge by id; 0 for histogram ids.
  std::uint64_t scalar_value(MetricId id) const;

  /// Scalar value by name. Throws ContractViolation for unknown names.
  std::uint64_t value(std::string_view name) const;

  /// The histogram behind `id`, nullptr for scalar ids.
  const Histogram* histogram_at(MetricId id) const;

  /// Relaxed snapshot of every scalar into `out[id]` (histogram slots 0).
  /// `out` is resized to size().
  void snapshot_scalars(std::vector<std::uint64_t>& out) const;

 private:
  struct Slot {
    MetricKind kind = MetricKind::kCounter;
    std::size_t index = 0;  // into the kind's deque
  };

  Slot& register_slot(std::string_view name, std::string_view unit,
                      MetricKind kind);

  // Deques: instrument addresses are stable as the directory grows.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<MetricDesc> directory_;
  std::vector<Slot> slots_;  // parallel to directory_
  // Ordered map (not unordered): registration is cold, and the telemetry
  // layer honors the same determinism rules as the layers it serves.
  std::map<std::string, MetricId, std::less<>> by_name_;
};

}  // namespace droppkt::telemetry
