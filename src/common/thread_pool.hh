/**
 * @file
 * Shared concurrency substrate for the compile flow.
 *
 * The floorplanning ILPs and the per-device intra-FPGA passes are the
 * hot paths of the compiler (paper section 5.6 reports 1.9-37.8 s of
 * solver time with Gurobi); every parallel consumer in this repo
 * draws workers from the one fixed-size pool below rather than
 * spawning ad-hoc threads, so nested parallelism (a parallelFor issued
 * from inside a pool task) composes without oversubscription.
 *
 * Design: one deque of tasks per worker, each guarded by its own
 * mutex. A worker pops from the back of its own deque (LIFO, cache
 * warm) and steals from the front of other deques when idle; external
 * submitters round-robin across deques. Blocking waits (TaskGroup::
 * wait, parallelFor) *help*: the waiting thread drains pool tasks
 * instead of sleeping, which is what makes nested submission safe
 * even on a single-worker pool.
 */

#ifndef TAPACS_COMMON_THREAD_POOL_HH
#define TAPACS_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tapacs
{

/**
 * Fixed-size work-stealing thread pool.
 *
 * Tasks must not block indefinitely on resources owned by other pool
 * tasks except through TaskGroup::wait / parallelFor (which help).
 */
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

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /**
     * Run body(i) for every i in [begin, end), distributing chunks
     * over the pool. The calling thread participates, so this is safe
     * to call from inside a pool task and completes even when every
     * worker is busy. Blocks until all iterations finish; the first
     * exception thrown by any iteration is rethrown here (remaining
     * iterations are abandoned at chunk granularity).
     */
    void parallelFor(std::int64_t begin, std::int64_t end,
                     const std::function<void(std::int64_t)> &body);

    /**
     * Pop and run one pending task from any deque, if there is one.
     *
     * @retval true a task was executed.
     */
    bool tryRunOneTask();

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
    /** One per-worker task deque with its guard. */
    struct Shard
    {
        std::mutex mu;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(int index);
    bool popTask(int self, std::function<void()> &out);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> threads_;

    /** Tasks sitting in deques (not yet started). */
    std::atomic<int> queued_{0};
    /** Round-robin cursor for external submissions. */
    std::atomic<unsigned> submitCursor_{0};

    std::mutex sleepMu_;
    std::condition_variable sleepCv_;
    bool stop_ = false; ///< guarded by sleepMu_
};

/**
 * A set of tasks submitted to a pool that can be awaited together.
 * wait() helps execute pool tasks while the group drains and rethrows
 * the first exception any task raised.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool = ThreadPool::defaultPool());
    /** Waits for stragglers; exceptions are swallowed here, so call
     *  wait() explicitly if you care about them. */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task as part of this group. */
    void run(std::function<void()> task);

    /**
     * Block until every task of the group finished, helping the pool
     * while waiting. Rethrows the first captured exception.
     */
    void wait();

  private:
    /**
     * Completion state shared with the task closures: a finishing
     * task may signal after wait() already returned and the TaskGroup
     * object is gone, so the closures co-own the state.
     */
    struct State
    {
        std::atomic<int> pending{0};
        std::mutex mu;
        std::condition_variable cv;
        std::exception_ptr error; ///< guarded by mu
    };

    ThreadPool &pool_;
    std::shared_ptr<State> state_;
};

/** Single-use countdown latch (C++20 std::latch is avoided to keep
 *  the TSAN-instrumented build portable across the toolchains the
 *  container images carry). */
class Latch
{
  public:
    explicit Latch(int count) : count_(count) {}

    /** Decrement by n; wakes waiters when the count reaches zero. */
    void countDown(int n = 1);

    /** Block until the count reaches zero. */
    void wait();

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    int count_;
};

} // namespace tapacs

#endif // TAPACS_COMMON_THREAD_POOL_HH
