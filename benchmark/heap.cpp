// Heap accounting for mem_peak_mb. The benchmark binary replaces the global
// allocation functions with ones that count usable bytes in and out, so a
// peak can be taken over any stretch of a run. Live heap bytes, unlike
// process RSS, do not depend on which allocator arena a new worker thread
// lands in or on whether freed pages went back to the kernel, which made
// RSS readings differ by 2x between identical passes.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace droppkt::benchmark {

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  note_free(p);
  std::free(p);
}

}  // namespace

std::int64_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::int64_t reset_heap_peak() {
  const std::int64_t live = heap_live_bytes();
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

std::int64_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace droppkt::benchmark

void* operator new(std::size_t n) {
  return droppkt::benchmark::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return droppkt::benchmark::counted_alloc(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return droppkt::benchmark::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return droppkt::benchmark::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return droppkt::benchmark::counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return droppkt::benchmark::counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { droppkt::benchmark::counted_free(p); }
void operator delete[](void* p) noexcept {
  droppkt::benchmark::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  droppkt::benchmark::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  droppkt::benchmark::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  droppkt::benchmark::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  droppkt::benchmark::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  droppkt::benchmark::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  droppkt::benchmark::counted_free(p);
}
