/**
 * @file
 * Tests for the thread pool's one primitive, the bounded fork-join
 * parallelFor: coverage, the maxWorkers cap, nesting on a small pool
 * and exception propagation. The `tsan` label runs this suite again
 * with TAPACS_THREADS=2 and --gtest_repeat=50 to stress late helpers
 * and nested loops on a small default pool.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"

namespace tapacs
{
namespace
{

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    ThreadPool pool(4);
    constexpr int kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(0, kN, [&](std::int64_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForSum)
{
    ThreadPool pool(4);
    constexpr std::int64_t kN = 5000;
    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(0, kN, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, ParallelForEmptyRange)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(5, 5, [&](std::int64_t) { ++calls; });
    pool.parallelFor(7, 3, [&](std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [&](std::int64_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ExceptionReturnsAndAbandonedIndicesNeverRun)
{
    // Every index throws, so each participant runs at most one index
    // before the cursor is parked: the other indices are abandoned.
    // None of them may run later, after parallelFor returned.
    ThreadPool pool(4);
    constexpr int kN = 10000;
    std::atomic<int> calls{0};
    EXPECT_THROW(pool.parallelFor(0, kN,
                                  [&](std::int64_t) {
                                      calls.fetch_add(1);
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    const int after = calls.load();
    EXPECT_GE(after, 1);
    EXPECT_LE(after, pool.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(calls.load(), after);

    // The pool stays usable after a failed loop.
    std::atomic<int> total{0};
    pool.parallelFor(0, 64, [&](std::int64_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, MaxWorkersBoundsPeakConcurrency)
{
    ThreadPool pool(4);
    for (int cap : {2, 3}) {
        std::atomic<int> active{0};
        std::atomic<int> peak{0};
        std::atomic<int> total{0};
        pool.parallelFor(
            0, 64,
            [&](std::int64_t) {
                const int now = active.fetch_add(1) + 1;
                int seen = peak.load();
                while (now > seen &&
                       !peak.compare_exchange_weak(seen, now)) {
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                active.fetch_sub(1);
                total.fetch_add(1);
            },
            cap);
        EXPECT_LE(peak.load(), cap) << "cap " << cap;
        EXPECT_EQ(total.load(), 64) << "cap " << cap;
    }
}

TEST(ThreadPool, OneWorkerRunsEveryIndexOnTheCaller)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(100);
    pool.parallelFor(
        0, 100,
        [&](std::int64_t i) { ran[i] = std::this_thread::get_id(); }, 1);
    for (std::size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(ran[i], caller) << "index " << i;
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    // Inner parallelFor issued from pool tasks must not deadlock even
    // when the pool is small: callers claim their own indices and
    // never wait on a queued helper.
    for (int workers : {1, 2}) {
        ThreadPool pool(workers);
        std::atomic<int> total{0};
        pool.parallelFor(0, 8, [&](std::int64_t) {
            pool.parallelFor(0, 16, [&](std::int64_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            });
        });
        EXPECT_EQ(total.load(), 8 * 16) << workers << " workers";
    }
}

TEST(ThreadPool, NestedOnDefaultPoolCompletes)
{
    // Three levels on the process-wide pool, whose size the tsan
    // stress entry pins at 2 through TAPACS_THREADS.
    ThreadPool &pool = ThreadPool::defaultPool();
    std::atomic<int> total{0};
    pool.parallelFor(0, 4, [&](std::int64_t) {
        pool.parallelFor(0, 4, [&](std::int64_t) {
            pool.parallelFor(0, 4, [&](std::int64_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            });
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletes)
{
    ThreadPool pool(1);
    std::atomic<int> total{0};
    pool.parallelFor(0, 64, [&](std::int64_t) {
        total.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ClampsThreadCount)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1);
    ThreadPool pool2(-3);
    EXPECT_EQ(pool2.size(), 1);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv)
{
    // setenv/getenv are not thread-safe against concurrent getenv, but
    // no pool thread reads the environment and gtest runs tests
    // serially. The inherited value is restored for repeated runs.
    const char *inherited = std::getenv("TAPACS_THREADS");
    const std::string saved = inherited != nullptr ? inherited : "";
    ASSERT_EQ(setenv("TAPACS_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
    ASSERT_EQ(setenv("TAPACS_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
    ASSERT_EQ(unsetenv("TAPACS_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
    if (inherited != nullptr) {
        ASSERT_EQ(setenv("TAPACS_THREADS", saved.c_str(), 1), 0);
    }
}

} // namespace
} // namespace tapacs
