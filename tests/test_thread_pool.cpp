#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace prts {
namespace {

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  const std::size_t count = 10000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(count, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSumsCorrectly) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  const std::size_t count = 5000;
  pool.parallel_for(count, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(),
            static_cast<long long>(count) * (count - 1) / 2);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("fail at 37");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::logic_error(""); }),
      std::logic_error);
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ManySmallBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(7, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 7);
  }
}

TEST(ThreadPool, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> future = pool.submit([&] { ran.fetch_add(1); });
  pool.shutdown();
  future.get();  // ran before the workers joined
  EXPECT_EQ(ran.load(), 1);
  pool.shutdown();  // second call is a no-op
  EXPECT_EQ(pool.thread_count(), 0u);
}

TEST(ThreadPool, SubmitAfterShutdownRunsOnTheCallingThread) {
  ThreadPool pool(2);
  pool.shutdown();
  std::thread::id ran_on;
  std::future<void> future =
      pool.submit([&] { ran_on = std::this_thread::get_id(); });
  // The task already ran, here: the future is ready and holds no error.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_NO_THROW(future.get());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForAfterShutdownVisitsEveryIndex) {
  ThreadPool pool(2);
  pool.shutdown();
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int hit : hits) EXPECT_EQ(hit, 1);
}

TEST(ParallelForEachIndex, Works) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for_each_index(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

}  // namespace
}  // namespace prts
