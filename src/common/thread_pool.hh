/**
 * @file
 * Shared concurrency substrate for the compile flow.
 *
 * The paper's parallel steps are flat loops over independent items:
 * step 2 synthesizes tasks in parallel and level 2 floorplans each
 * FPGA on its own. So the pool offers exactly one primitive, a
 * bounded fork-join parallelFor; every parallel consumer in this
 * repo draws workers from the one fixed-size pool below rather than
 * spawning ad-hoc threads.
 *
 * Design: one FIFO of helper closures under one mutex and one
 * condition variable. A parallelFor queues up to maxWorkers - 1
 * helpers and claims chunks of the index range itself; every claimer
 * pulls chunks from the loop's atomic cursor. The caller then blocks
 * until each claimed index has finished. It never waits on a queued
 * helper: a helper that starts after the cursor ran out claims
 * nothing, so nested loops complete even on a one-worker pool. There
 * is no work stealing and no timed or helping wait.
 */

#ifndef TAPACS_COMMON_THREAD_POOL_HH
#define TAPACS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tapacs
{

/** Fixed-size thread pool that runs bounded fork-join loops. */
class ThreadPool
{
  public:
    /**
     * @param numThreads worker threads to spawn; clamped to >= 1.
     */
    explicit ThreadPool(int numThreads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int size() const { return static_cast<int>(threads_.size()); }

    /**
     * Run body(i) for every i in [begin, end) on at most maxWorkers
     * threads, the calling thread included. 0 means the pool size;
     * 1 is a plain loop on the caller. Safe to call from inside a
     * body. Blocks until every claimed index finished; the first
     * exception any index threw is rethrown here, and the indices no
     * thread had claimed by then never run.
     */
    void parallelFor(std::int64_t begin, std::int64_t end,
                     const std::function<void(std::int64_t)> &body,
                     int maxWorkers = 0);

    /**
     * The process-wide pool, created on first use and sized by
     * defaultThreadCount().
     */
    static ThreadPool &defaultPool();

    /**
     * Worker count for the default pool: the TAPACS_THREADS
     * environment variable when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (minimum 1).
     */
    static int defaultThreadCount();

    /**
     * Index of the pool worker the calling thread is, or -1 when the
     * caller is not a pool worker. Lets layers that must not link
     * against the pool's consumers (e.g. the tracing subsystem) tag
     * work with a stable worker identity.
     */
    static int currentWorkerIndex();

  private:
    void workerLoop(int index);

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> helpers_; ///< guarded by mu_
    bool stop_ = false;                         ///< guarded by mu_
    std::vector<std::thread> threads_;
};

} // namespace tapacs

#endif // TAPACS_COMMON_THREAD_POOL_HH
