// Bounded lock-free queue used as the per-shard mailbox of the ingest
// engine (src/engine/).
//
// The fast path is single-producer/single-consumer: the ingest thread
// pushes, one shard worker pops, and neither ever takes a lock. Each slot
// carries a sequence counter (Vyukov-style) instead of the classic
// head/tail-only SPSC design; the extra counter is what makes the
// kDropOldest backpressure policy safe — when the ring is full the
// *producer* may retire the oldest element itself, momentarily acting as a
// second consumer, without racing the worker on slot payloads.
//
// Backpressure policies:
//   kBlock      — push() spins (then yields) until the consumer frees a
//                 slot. Nothing is lost; the feed stalls.
//   kDropOldest — push() retires the oldest queued element and counts it
//                 in dropped(). The feed never stalls; a slow shard sheds
//                 its oldest backlog first, which for time-ordered
//                 monitoring data is the least valuable backlog.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "util/annotations.hpp"
#include "util/expect.hpp"

namespace droppkt::util {

/// What push() does when the ring is full.
enum class BackpressurePolicy { kBlock, kDropOldest };

template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity,
                     BackpressurePolicy policy = BackpressurePolicy::kBlock)
      : policy_(policy) {
    DROPPKT_EXPECT(capacity >= 2, "SpscQueue: capacity must be at least 2");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }
  BackpressurePolicy policy() const { return policy_; }

  /// Producer: enqueue, applying the backpressure policy when full.
  DROPPKT_NOALLOC void push(T value) {
    std::size_t spins = 0;
    while (!try_push(value)) {
      if (policy_ == BackpressurePolicy::kDropOldest) {
        T discarded;
        if (try_pop(discarded)) dropped_.fetch_add(1, std::memory_order_relaxed);
      } else if (++spins >= kSpinLimit) {
        std::this_thread::yield();
      } else {
        backoff();
      }
    }
    note_high_water();
  }

  /// Producer: enqueue without blocking or dropping. On success `value` is
  /// moved from; on a full ring it is left intact and false is returned.
  DROPPKT_NOALLOC bool try_push(T& value) {
    Cell* cell = nullptr;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Consumer (or producer shedding backlog): dequeue without blocking.
  DROPPKT_NOALLOC bool try_pop(T& out) {
    Cell* cell = nullptr;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Producer: enqueue up to `n` items from `items`, stopping early when
  /// the ring fills. Returns the number enqueued; those elements are
  /// moved-from. One claim loop per element but a single high-water /
  /// occupancy update per call — the fastclick push_batch idiom applied to
  /// the mailbox: per-element function-call and bookkeeping overhead is
  /// paid once per block.
  DROPPKT_NOALLOC std::size_t try_push_bulk(T* items, std::size_t n) {
    std::size_t pushed = 0;
    while (pushed < n && try_push(items[pushed])) ++pushed;
    if (pushed > 0) note_high_water();
    return pushed;
  }

  /// Producer: enqueue all `n` items, applying the backpressure policy
  /// whenever the ring fills mid-block. kDropOldest may shed elements that
  /// were part of this same block (a block larger than the ring keeps only
  /// its newest ring-full suffix, all older elements counted in dropped()).
  DROPPKT_NOALLOC void push_bulk(T* items, std::size_t n) {
    std::size_t pushed = 0;
    std::size_t spins = 0;
    while (pushed < n) {
      const std::size_t got = try_push_bulk(items + pushed, n - pushed);
      pushed += got;
      if (pushed == n) break;
      if (policy_ == BackpressurePolicy::kDropOldest) {
        T discarded;
        if (try_pop(discarded)) dropped_.fetch_add(1, std::memory_order_relaxed);
      } else if (got == 0 && ++spins >= kSpinLimit) {
        std::this_thread::yield();
      } else if (got == 0) {
        backoff();
      }
    }
  }

  /// Consumer (or producer shedding backlog): dequeue up to `n` items into
  /// `out`. Returns the number dequeued (0 when empty).
  DROPPKT_NOALLOC std::size_t try_pop_bulk(T* out, std::size_t n) {
    std::size_t popped = 0;
    while (popped < n && try_pop(out[popped])) ++popped;
    return popped;
  }

  /// Consumer: dequeue between 1 and `n` items, waiting for the first.
  /// Returns 0 only once the queue has been close()d and fully drained.
  DROPPKT_NOALLOC std::size_t pop_wait_bulk(T* out, std::size_t n) {
    std::size_t spins = 0;
    for (;;) {
      const std::size_t got = try_pop_bulk(out, n);
      if (got > 0) return got;
      if (closed_.load(std::memory_order_acquire)) {
        return try_pop_bulk(out, n);  // drain pushes racing close()
      }
      if (++spins >= kSpinLimit) {
        std::this_thread::yield();
      }
    }
  }

  /// Producer: no more push() calls will follow; wakes pop_wait_bulk().
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate number of queued elements (exact when quiescent).
  std::size_t size() const {
    const std::size_t tail = enqueue_pos_.load(std::memory_order_acquire);
    const std::size_t head = dequeue_pos_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  bool empty() const { return size() == 0; }

  /// Elements retired by the kDropOldest policy.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Deepest occupancy ever observed by the producer.
  std::size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  static constexpr std::size_t kSpinLimit = 64;

  void note_high_water() {
    const std::size_t depth = size();
    // Per-push-call, so debug-only: a depth past capacity means the ring's
    // sequence bookkeeping corrupted (double-produce or a stomped slot).
    DROPPKT_ASSERT(depth <= capacity(),
                   "SpscQueue: occupancy exceeds capacity");
    if (depth > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(depth, std::memory_order_relaxed);
    }
  }

  static void backoff() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  BackpressurePolicy policy_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> high_water_{0};
};

}  // namespace droppkt::util
