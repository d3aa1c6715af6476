// Counting-allocator gate for the allocation-free ingest hot path.
//
// The carrier-scale claim is that steady-state record ingest performs
// ZERO heap allocations per record: strings are interned once, records
// move as PODs, per-client buffers and emission scratch keep their
// capacity across sessions. This binary replaces global operator new with
// a thread-local counting shim and asserts an exact zero over a
// steady-state window, on both sides of the mailbox:
//   * the monitor/worker side (observe -> boundary scan -> classify ->
//     emit), driven single-threaded, and
//   * the engine's producer side (intern -> POD convert -> enqueue,
//     batched and unbatched).
// Warmup first feeds enough records that every client is known, every
// scratch buffer has reached its high-water capacity, and every string is
// interned; the measured window then replays the same shape of traffic.
//
// The shim also totals requested bytes, which bounds what a hostile model
// header can make the loader allocate before it fails.
//
// Kept in its own test executable so the operator-new replacement cannot
// perturb the other suites. Skipped under sanitizers, which own the
// allocator.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "core/monitor.hpp"
#include "engine/engine.hpp"
#include "engine/feed.hpp"
#include "ml/compiled_forest.hpp"
#include "util/expect.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DROPPKT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DROPPKT_ALLOC_COUNTING 0
#else
#define DROPPKT_ALLOC_COUNTING 1
#endif
#else
#define DROPPKT_ALLOC_COUNTING 1
#endif

namespace {
// Thread-local so worker/producer threads never pollute the measuring
// thread's count; each test attributes allocations to the thread that
// made them. Unused, like the fixtures below, when a sanitizer owns the
// allocator.
[[maybe_unused]] thread_local std::uint64_t t_allocations = 0;
[[maybe_unused]] thread_local std::uint64_t t_allocated_bytes = 0;
}  // namespace

#if DROPPKT_ALLOC_COUNTING

namespace {

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  t_allocated_bytes += n;
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  ++t_allocations;
  t_allocated_bytes += n;
  if (n == 0) n = 1;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocations;
  t_allocated_bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocations;
  t_allocated_bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // DROPPKT_ALLOC_COUNTING

namespace droppkt::engine {
namespace {

[[maybe_unused]] const core::QoeEstimator& trained_estimator() {
  static const core::QoeEstimator est = [] {
    core::DatasetConfig cfg;
    cfg.num_sessions = 150;
    cfg.seed = 23;
    cfg.trace_pool_size = 30;
    cfg.catalog_size = 15;
    core::QoeEstimator e;
    e.train(core::build_dataset(has::svc1_profile(), cfg));
    return e;
  }();
  return est;
}

/// Two-session-per-client synthetic feed: session 1 is warmup (slots,
/// interned strings, scratch capacities all reach steady state), session 2
/// is the measured window with the identical traffic shape.
[[maybe_unused]] const Feed& steady_feed() {
  static const Feed feed = [] {
    SynthFeedConfig cfg;
    cfg.num_clients = 60;
    cfg.sessions_per_client = 2;
    cfg.txns_per_session = 24;
    // All clients start within 100 s, so the warmup prefix provably
    // contains every client's first session (and so every client slot,
    // interned string, and scratch high-water mark).
    cfg.horizon_s = 100.0;
    cfg.seed = 7;
    return synthetic_feed(cfg);
  }();
  return feed;
}

TEST(ZeroAlloc, MonitorSteadyStateObserveAndEmit) {
#if !DROPPKT_ALLOC_COUNTING
  GTEST_SKIP() << "allocator owned by a sanitizer";
#else
  const Feed& feed = steady_feed();
  // Once with session emission only, once with an in-flight estimate
  // (live accumulator snapshot + single-row forest predict) every 4th
  // record per client.
  for (const std::size_t provisional_every : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "provisional_every "
                                    << provisional_every);
    std::size_t sessions = 0;
    std::size_t provisionals = 0;
    core::MonitorConfig mcfg;
    mcfg.materialize_transactions = false;
    mcfg.provisional_every = provisional_every;
    core::StreamingMonitor mon(
        core::StreamingMonitor::ViewSinkTag{}, trained_estimator(),
        [&](const core::MonitoredSessionView& s) {
          sessions += s.records.empty() ? 0 : 1;
        },
        mcfg);
    if (provisional_every > 0) {
      mon.set_provisional_callback(
          [&](const core::ProvisionalEstimate&) { ++provisionals; });
    }

    // Warmup: the first 60% of records covers every client's first
    // session plus (for most) the idle-gap emission that opens its second.
    const std::size_t warm = feed.size() * 6 / 10;
    for (std::size_t i = 0; i < warm; ++i) {
      mon.observe(feed[i].client, feed[i].txn);
    }
    const std::size_t warm_sessions = sessions;
    const std::size_t warm_provisionals = provisionals;

    const std::uint64_t before = t_allocations;
    for (std::size_t i = warm; i < feed.size(); ++i) {
      mon.observe(feed[i].client, feed[i].txn);
    }
    const std::uint64_t during = t_allocations - before;

    mon.finish();
    EXPECT_GT(warm_sessions, 0u) << "warmup never emitted — window too short";
    EXPECT_GT(sessions, warm_sessions)
        << "measured window emitted no sessions — it exercised no emit path";
    if (provisional_every > 0) {
      EXPECT_GT(provisionals, warm_provisionals)
          << "measured window produced no provisional estimates";
    }
    EXPECT_EQ(during, 0u)
        << during << " heap allocations in the steady-state observe window";
  }
#endif
}

TEST(ZeroAlloc, EngineProducerSteadyStateIngest) {
#if !DROPPKT_ALLOC_COUNTING
  GTEST_SKIP() << "allocator owned by a sanitizer";
#else
  const Feed& feed = steady_feed();
  EngineConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 1u << 16;  // never exert backpressure in this test
  cfg.monitor.materialize_transactions = false;
  IngestEngine eng(trained_estimator(),
                   [](const core::MonitoredSessionView&) {}, cfg);

  const std::size_t warm = feed.size() / 2;
  for (std::size_t i = 0; i < warm; ++i) {
    eng.ingest(feed[i].client, feed[i].txn);
  }

  // Unbatched producer path: intern + POD convert + push, per record.
  const std::size_t split = warm + (feed.size() - warm) / 2;
  const std::uint64_t before_single = t_allocations;
  for (std::size_t i = warm; i < split; ++i) {
    eng.ingest(feed[i].client, feed[i].txn);
  }
  const std::uint64_t single = t_allocations - before_single;

  // Batched producer path: staging reuses its reserved block, push_bulk
  // moves PODs.
  const std::uint64_t before_batch = t_allocations;
  for (std::size_t i = split; i < feed.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, feed.size() - i);
    eng.ingest_batch({feed.data() + i, n});
  }
  const std::uint64_t batched = t_allocations - before_batch;

  eng.finish();
  EXPECT_EQ(single, 0u)
      << single << " producer-side allocations across unbatched ingest";
  EXPECT_EQ(batched, 0u)
      << batched << " producer-side allocations across batched ingest";
  EXPECT_GT(eng.sessions_reported(), 0u);
#endif
}

TEST(ZeroAlloc, HugeNodeCountModelRejectedUnderOneMiB) {
#if !DROPPKT_ALLOC_COUNTING
  GTEST_SKIP() << "allocator owned by a sanitizer";
#else
  // 33 bytes whose header claims 2^26 nodes (the loader's cap) and ends
  // before node 0. Sizing the node arrays to the claim requested over a
  // GiB before the loader noticed the truncation.
  const std::string body = "droppkt-cf v1\n2 1 1 67108864 2\n0\n";
  ASSERT_EQ(body.size(), 33u);
  constexpr std::uint64_t kOneMiB = 1u << 20;
  {
    std::istringstream is(body);
    const std::uint64_t before = t_allocated_bytes;
    EXPECT_THROW(ml::CompiledForest::load(is), ParseError);
    EXPECT_LT(t_allocated_bytes - before, kOneMiB);
  }
  // The same body behind an estimator envelope, as a model file delivers
  // it (fuzz/regressions/model/crash-cf-node-count-alloc.txt).
  {
    std::istringstream is("droppkt-estimator v2\n0\n1 30\n" + body);
    const std::uint64_t before = t_allocated_bytes;
    EXPECT_THROW(core::QoeEstimator::load(is), ParseError);
    EXPECT_LT(t_allocated_bytes - before, kOneMiB);
  }
#endif
}

}  // namespace
}  // namespace droppkt::engine
