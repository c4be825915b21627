#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace pds2::common {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvOverride) {
  ASSERT_EQ(setenv("PDS2_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("PDS2_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);  // falls back to hardware
  ASSERT_EQ(setenv("PDS2_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);  // rejects non-positive
  ASSERT_EQ(unsetenv("PDS2_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeNeverInvokesBody) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
    pool.ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); });  // inverted
    pool.ParallelForChunks(0, 4, [&](size_t, size_t, size_t) {
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(0, kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForExceptionIsPropagatedAfterJoin) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.ParallelFor(0, 100,
                                  [&](size_t i) {
                                    if (i == 37) {
                                      throw std::invalid_argument("i==37");
                                    }
                                  }),
                 std::invalid_argument);
  }
}

TEST(ThreadPoolTest, ChunkBoundariesAreBalancedAndExhaustive) {
  for (size_t n : {1u, 7u, 64u, 1000u}) {
    for (size_t chunks : {1u, 3u, 8u, 64u}) {
      const size_t effective = std::min(chunks, n);
      size_t covered = 0;
      size_t min_size = n, max_size = 0;
      for (size_t c = 0; c < effective; ++c) {
        const size_t lo = ThreadPool::ChunkBegin(n, effective, c);
        const size_t hi = ThreadPool::ChunkBegin(n, effective, c + 1);
        ASSERT_EQ(lo, covered);  // contiguous, in order
        ASSERT_GT(hi, lo);       // never empty
        covered = hi;
        min_size = std::min(min_size, hi - lo);
        max_size = std::max(max_size, hi - lo);
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(max_size - min_size, 1u);  // balanced to within one item
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<size_t> total{0};
    pool.ParallelFor(0, 8, [&](size_t) {
      pool.ParallelFor(0, 8, [&](size_t j) { total.fetch_add(j); });
    });
    EXPECT_EQ(total.load(), 8u * 28u);  // 8 outer x sum(0..7)
  }
}

TEST(ThreadPoolTest, SingleThreadPoolExecutesIndicesInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(0, 64, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // the sequential-reference guarantee
}

}  // namespace
}  // namespace pds2::common
