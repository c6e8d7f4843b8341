// Unit tests for the lock-free MPSC event queue backing analyzer shards
// (common/mpsc_queue.h): FIFO order, batched drain, close semantics,
// consumer parking, and multi-producer delivery with per-producer order.
#include "common/mpsc_queue.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

namespace p2g {
namespace {

TEST(MpscQueue, FifoOrderSingleProducer) {
  MpscQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  q.close();
  std::deque<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{1, 2, 3}));
  EXPECT_FALSE(q.pop_all(batch));
}

TEST(MpscQueue, PopAllDrainsEverythingAtOnce) {
  MpscQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::deque<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{0, 1, 2, 3, 4}));
  q.close();
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(MpscQueue, CloseDeliversItemsPushedBeforeClose) {
  MpscQueue<int> q;
  q.push(7);
  q.push(8);
  q.close();
  std::deque<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{7, 8}));
  EXPECT_FALSE(q.pop_all(batch));
}

TEST(MpscQueue, ApproximateSizeTracksBacklog) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  std::deque<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_TRUE(q.empty());
  q.close();
}

TEST(MpscQueue, ParkedConsumerIsWokenByPush) {
  MpscQueue<int> q;
  std::thread consumer([&q] {
    std::deque<int> batch;
    EXPECT_TRUE(q.pop_all(batch));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front(), 42);
  });
  // Give the consumer time to park on the empty queue before pushing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.push(42);
  consumer.join();
  q.close();
}

TEST(MpscQueue, ParkedConsumerIsWokenByClose) {
  MpscQueue<int> q;
  std::thread consumer([&q] {
    std::deque<int> batch;
    EXPECT_FALSE(q.pop_all(batch));
    EXPECT_TRUE(batch.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(MpscQueue, MultiProducerDeliversEverythingPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kItems = 2000;
  MpscQueue<int64_t> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItems; ++i) {
        q.push((static_cast<int64_t>(p) << 32) | static_cast<int64_t>(i));
      }
    });
  }
  std::vector<int64_t> got;
  got.reserve(static_cast<size_t>(kProducers) * kItems);
  std::deque<int64_t> batch;
  while (got.size() < static_cast<size_t>(kProducers) * kItems) {
    ASSERT_TRUE(q.pop_all(batch));
    got.insert(got.end(), batch.begin(), batch.end());
  }
  for (std::thread& t : producers) t.join();

  ASSERT_EQ(got.size(), static_cast<size_t>(kProducers) * kItems);
  // Global order is unspecified across producers, but each producer's own
  // items must arrive in push order.
  std::vector<int64_t> next(kProducers, 0);
  for (const int64_t v : got) {
    const auto p = static_cast<size_t>(v >> 32);
    const int64_t seq = v & 0xFFFFFFFF;
    ASSERT_LT(p, static_cast<size_t>(kProducers));
    EXPECT_EQ(seq, next[p]);
    ++next[p];
  }
  q.close();
}

TEST(MpscQueue, MovesNonCopyablePayloads) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  q.close();
  std::deque<std::unique_ptr<int>> batch;
  ASSERT_TRUE(q.pop_all(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(*batch.front(), 5);
}

}  // namespace
}  // namespace p2g
