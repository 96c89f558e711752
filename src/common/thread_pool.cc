#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/logging.hh"

namespace tapacs
{

namespace
{

/** Identity of the current thread within a pool (or none). */
struct WorkerIdentity
{
    ThreadPool *pool = nullptr;
    int index = -1;
};

thread_local WorkerIdentity tls_worker;

using Body = std::function<void(std::int64_t)>;

/**
 * State of one parallelFor, co-owned by its caller and the helpers it
 * queued: a helper may start after the loop returned.
 */
struct Loop
{
    Loop(std::int64_t begin, std::int64_t end, std::int64_t grain)
        : next(begin), end(end), count(end - begin), grain(grain)
    {
    }

    std::atomic<std::int64_t> next;
    const std::int64_t end;
    const std::int64_t count;
    const std::int64_t grain;

    std::mutex mu;
    std::condition_variable cv;
    /** Indices run to completion or abandoned after an exception. */
    std::int64_t finished = 0; ///< guarded by mu
    std::exception_ptr error;  ///< guarded by mu

    /**
     * Claim chunks until the cursor runs out. `body` is dereferenced
     * only after a successful claim, and the caller cannot return
     * while a claimed index is unfinished, so a late helper never
     * touches the caller's (possibly destroyed) body.
     */
    void run(const Body *body)
    {
        for (;;) {
            const std::int64_t lo =
                next.fetch_add(grain, std::memory_order_relaxed);
            if (lo >= end)
                return;
            const std::int64_t hi = std::min(end, lo + grain);
            std::int64_t done = hi - lo;
            std::exception_ptr thrown;
            try {
                for (std::int64_t i = lo; i < hi; ++i)
                    (*body)(i);
            } catch (...) {
                thrown = std::current_exception();
                // Park the cursor: whatever nobody claimed yet is
                // abandoned and counts as finished.
                const std::int64_t rest =
                    next.exchange(end, std::memory_order_relaxed);
                if (rest < end)
                    done += end - rest;
            }
            std::lock_guard<std::mutex> lk(mu);
            finished += done;
            if (thrown && !error)
                error = thrown;
            if (finished == count)
                cv.notify_all();
        }
    }
};

} // namespace

ThreadPool::ThreadPool(int numThreads)
{
    const int n = std::max(1, numThreads);
    threads_.reserve(n);
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::workerLoop(int index)
{
    tls_worker.pool = this;
    tls_worker.index = index;
    for (;;) {
        std::function<void()> helper;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !helpers_.empty(); });
            // Helpers still queued at shutdown belong to loops that
            // already returned; they would claim nothing.
            if (stop_)
                return;
            helper = std::move(helpers_.front());
            helpers_.pop_front();
        }
        helper();
    }
}

void
ThreadPool::parallelFor(std::int64_t begin, std::int64_t end,
                        const Body &body, int maxWorkers)
{
    const std::int64_t count = end - begin;
    if (count <= 0)
        return;
    const int workers = static_cast<int>(std::min<std::int64_t>(
        maxWorkers > 0 ? maxWorkers : size(), count));
    if (workers <= 1) {
        for (std::int64_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    // Dynamic chunking: small chunks for load balance, but at least
    // one index; the shared cursor is the only coordination point.
    const std::int64_t grain =
        std::max<std::int64_t>(1, count / (8 * workers));
    auto loop = std::make_shared<Loop>(begin, end, grain);
    const int helpers = std::min(workers - 1, size());
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (int h = 0; h < helpers; ++h)
            helpers_.emplace_back([loop, b = &body] { loop->run(b); });
    }
    for (int h = 0; h < helpers; ++h)
        cv_.notify_one();

    loop->run(&body);
    std::unique_lock<std::mutex> lk(loop->mu);
    loop->cv.wait(lk, [&] { return loop->finished == loop->count; });
    if (loop->error)
        std::rethrow_exception(loop->error);
}

ThreadPool &
ThreadPool::defaultPool()
{
    // Intentionally leaked: running ~ThreadPool from exit()'s static-
    // destructor pass joins workers, which deadlocks forked children
    // (e.g. gtest death tests) that inherit the worker handles but not
    // the worker threads. The static pointer keeps the pool reachable,
    // so leak checkers stay quiet, and the OS reclaims the threads.
    static ThreadPool *pool = new ThreadPool(defaultThreadCount());
    return *pool;
}

int
ThreadPool::currentWorkerIndex()
{
    return tls_worker.pool != nullptr ? tls_worker.index : -1;
}

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("TAPACS_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<int>(std::min(v, 512L));
        warn("ignoring invalid TAPACS_THREADS='%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace tapacs
