// In-memory spans for the traced run. The benchmark wraps its own calls
// into the library's public API (no span lives inside src/): each span
// records name, thread, start, end, its id and the id of the span that
// caused it. A span opened while another is open on the same thread is its
// child; a span on a thread with nothing open (a shard worker calling a
// sink) is a child of the current phase span. Spans are written out as
// Chrome trace-event JSON when the benchmark ends.
//
// Tracing is off unless a SpanRecorder is installed; a ScopedSpan then
// costs one pointer load.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace droppkt::benchmark {

struct Span {
  const char* name = "";  // string literal
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// The installed recorder, or nullptr when tracing is off.
  static SpanRecorder* active() {
    return active_.load(std::memory_order_acquire);
  }
  /// Install (or, with nullptr, remove) the process-wide recorder. Only
  /// while no traced call is in flight.
  static void install(SpanRecorder* recorder) {
    active_.store(recorder, std::memory_order_release);
  }

  /// Every recorded span. Call only when the threads that recorded them
  /// have been joined or are idle.
  std::vector<Span> spans() const;

  /// Durations (us) of the spans called `name` that began while phase span
  /// `phase` was open, on any thread.
  std::vector<double> durations_us(const char* name, std::uint64_t phase) const;

  /// Print count, total, self time (duration minus the part covered by
  /// child spans), mean and p99 per span name.
  void print_summary() const;

  /// Write Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    std::uint32_t tid = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t open = 0;  // innermost open span on this thread
    // A deque, not a vector: growing a vector of a million spans copies
    // them all while the traced call waits, which showed as millisecond
    // stalls in the traced passes' latency.
    std::deque<Span> spans;
  };
  ThreadLog& thread_log();

  static std::atomic<SpanRecorder*> active_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<std::uint64_t> phase_{0};
};

/// RAII span around one call. A phase span also becomes the parent of
/// spans opened on threads with no open span of their own.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool phase = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off).
  std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::ThreadLog* log_ = nullptr;
  Span span_;
  std::uint64_t saved_open_ = 0;
  std::uint64_t saved_phase_ = 0;
  bool phase_;
};

}  // namespace droppkt::benchmark
