#include "util/spsc_queue.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/expect.hpp"

namespace droppkt::util {
namespace {

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscQueue<int>(65).capacity(), 128u);
  EXPECT_THROW(SpscQueue<int>(1), droppkt::ContractViolation);
}

TEST(SpscQueue, FifoSingleThread) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) q.push(i);
  EXPECT_EQ(q.size(), 8u);
  int v = -1;
  EXPECT_FALSE(q.try_push(v));  // full
  for (int i = 0; i < 8; ++i) {
    int out = -1;
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(q.try_pop(out));  // empty
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<std::size_t> q(4);
  std::size_t next_out = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    q.push(i);
    if (i % 2 == 1) {  // drain two for every two pushed, staying half-full
      for (int k = 0; k < 2; ++k) {
        std::size_t out = 0;
        ASSERT_TRUE(q.try_pop(out));
        EXPECT_EQ(out, next_out++);
      }
    }
  }
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(SpscQueue, DropOldestAccounting) {
  SpscQueue<int> q(4, BackpressurePolicy::kDropOldest);
  for (int i = 0; i < 10; ++i) q.push(i);  // 0..5 are shed, 6..9 survive
  EXPECT_EQ(q.dropped(), 6u);
  EXPECT_EQ(q.size(), 4u);
  for (int expect = 6; expect < 10; ++expect) {
    int out = -1;
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_TRUE(q.empty());
  // Drops only happen under overflow, not on every push.
  q.push(42);
  EXPECT_EQ(q.dropped(), 6u);
}

TEST(SpscQueue, HighWaterTracksDeepestOccupancy) {
  SpscQueue<int> q(16);
  for (int i = 0; i < 5; ++i) q.push(i);
  int out;
  while (q.try_pop(out)) {
  }
  for (int i = 0; i < 3; ++i) q.push(i);
  EXPECT_EQ(q.high_water(), 5u);
}

// Consumer side of the two-thread tests: drain `q` in blocks of up to
// `block` elements, as the engine's shard workers do, until it is closed
// and empty.
template <typename T>
std::vector<T> drain_blocks(SpscQueue<T>& q, std::size_t block) {
  std::vector<T> got;
  std::vector<T> buf(block);
  for (;;) {
    const std::size_t n = q.pop_wait_bulk(buf.data(), block);
    if (n == 0) return got;
    for (std::size_t i = 0; i < n; ++i) got.push_back(std::move(buf[i]));
  }
}

TEST(SpscQueue, CloseWakesConsumerAfterDrain) {
  SpscQueue<int> q(8);
  q.push(1);
  q.push(2);
  q.close();
  int out = -1;
  EXPECT_EQ(q.pop_wait_bulk(&out, 1), 1u);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.pop_wait_bulk(&out, 1), 1u);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.pop_wait_bulk(&out, 1), 0u);  // closed and empty
}

TEST(SpscQueue, TwoThreadStressBlocking) {
  constexpr std::size_t kItems = 200000;
  SpscQueue<std::size_t> q(64);
  std::vector<std::size_t> got;
  std::thread consumer([&] { got = drain_blocks(q, 16); });
  for (std::size_t i = 0; i < kItems; ++i) q.push(i);
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(got[i], i) << "order violated at " << i;
  }
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_LE(q.high_water(), q.capacity());
}

TEST(SpscQueue, TwoThreadStressDropOldestKeepsOrderedSuffix) {
  constexpr std::size_t kItems = 100000;
  SpscQueue<std::size_t> q(16, BackpressurePolicy::kDropOldest);
  std::vector<std::size_t> got;
  // Blocks of up to 8 on a 16-ring: the producer sheds the oldest element
  // while the consumer claims a run of slots.
  std::thread consumer([&] { got = drain_blocks(q, 8); });
  for (std::size_t i = 0; i < kItems; ++i) q.push(i);
  q.close();
  consumer.join();
  // Whatever survives must be a strictly increasing subsequence ending at
  // the final element, and conservation must hold exactly.
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), kItems - 1);
  for (std::size_t i = 1; i < got.size(); ++i) ASSERT_LT(got[i - 1], got[i]);
  EXPECT_EQ(got.size() + q.dropped(), kItems);
}

TEST(SpscQueue, BulkRoundTripWrapsAround) {
  // Bulk blocks that never divide the capacity evenly force every push
  // and pop to straddle the ring boundary repeatedly.
  SpscQueue<std::size_t> q(8);
  std::size_t next_in = 0;
  std::size_t next_out = 0;
  std::size_t block[5];
  std::size_t out[5];
  for (int round = 0; round < 500; ++round) {
    for (auto& v : block) v = next_in++;
    q.push_bulk(block, 5);
    const std::size_t got = q.try_pop_bulk(out, 5);
    ASSERT_EQ(got, 5u);
    for (std::size_t i = 0; i < got; ++i) ASSERT_EQ(out[i], next_out++);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(SpscQueue, TryPushBulkStopsAtFullRing) {
  SpscQueue<int> q(4);
  int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_bulk(items, 6), 4u);  // ring holds 4
  EXPECT_EQ(q.try_push_bulk(items + 4, 2), 0u);
  int out[6];
  EXPECT_EQ(q.try_pop_bulk(out, 6), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.try_pop_bulk(out, 6), 0u);  // empty
}

TEST(SpscQueue, DropOldestAcrossOneBulkBlock) {
  // A block larger than the ring: only its newest ring-full suffix may
  // survive, and everything older — including elements of this same
  // block — is counted in dropped().
  SpscQueue<int> q(4, BackpressurePolicy::kDropOldest);
  q.push(100);
  q.push(101);
  int block[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  q.push_bulk(block, 10);
  EXPECT_EQ(q.dropped(), 8u);  // 100, 101, and block elements 0..5
  EXPECT_EQ(q.size(), 4u);
  for (int expect = 6; expect < 10; ++expect) {
    int out = -1;
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, expect);
  }
}

TEST(SpscQueue, PopWaitBulkDrainsTailAfterClose) {
  SpscQueue<int> q(8);
  int items[3] = {7, 8, 9};
  q.push_bulk(items, 3);
  q.close();
  int out[8];
  EXPECT_EQ(q.pop_wait_bulk(out, 8), 3u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(q.pop_wait_bulk(out, 8), 0u);  // closed and fully drained
}

TEST(SpscQueue, TwoThreadBulkStressBlocking) {
  constexpr std::size_t kItems = 200000;
  constexpr std::size_t kBlock = 37;  // non-power-of-two on a 64-ring
  SpscQueue<std::size_t> q(64);
  std::vector<std::size_t> got;
  std::thread consumer([&] { got = drain_blocks(q, kBlock); });
  std::size_t block[kBlock];
  std::size_t next = 0;
  while (next < kItems) {
    std::size_t n = 0;
    while (n < kBlock && next < kItems) block[n++] = next++;
    q.push_bulk(block, n);
  }
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(got[i], i) << "order violated at " << i;
  }
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(SpscQueue, MovesNonTrivialPayloads) {
  SpscQueue<std::string> q(8);
  std::vector<std::string> got;
  std::thread consumer([&] { got = drain_blocks(q, 3); });
  for (int i = 0; i < 5000; ++i) q.push("payload-" + std::to_string(i));
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), 5000u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], "payload-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace droppkt::util
