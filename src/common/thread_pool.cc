#include "common/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

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

} // namespace

ThreadPool::ThreadPool(int numThreads)
{
    const int n = std::max(1, numThreads);
    shards_.reserve(n);
    for (int i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Shard>());
    threads_.reserve(n);
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(sleepMu_);
        stop_ = true;
    }
    sleepCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    tapacs_assert(task != nullptr);
    // A worker queues onto its own deque (depth-first locality);
    // external threads spread round-robin.
    int target;
    if (tls_worker.pool == this) {
        target = tls_worker.index;
    } else {
        target = static_cast<int>(submitCursor_.fetch_add(
                     1, std::memory_order_relaxed) %
                 shards_.size());
    }
    {
        std::lock_guard<std::mutex> lk(shards_[target]->mu);
        shards_[target]->tasks.push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_release);
    // Pairing the notify with a (possibly empty) critical section on
    // sleepMu_ closes the race against a worker that checked queued_
    // and is about to wait.
    { std::lock_guard<std::mutex> lk(sleepMu_); }
    sleepCv_.notify_one();
}

bool
ThreadPool::popTask(int self, std::function<void()> &out)
{
    const int n = static_cast<int>(shards_.size());
    // Own deque first, from the back: newest task, warmest cache.
    if (self >= 0) {
        Shard &s = *shards_[self];
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.tasks.empty()) {
            out = std::move(s.tasks.back());
            s.tasks.pop_back();
            queued_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    // Steal from the front of the other deques (oldest task: the
    // victim is least likely to want it back soon).
    const int start = self >= 0 ? self : 0;
    for (int i = 1; i <= n; ++i) {
        const int victim = (start + i) % n;
        Shard &s = *shards_[victim];
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.tasks.empty()) {
            out = std::move(s.tasks.front());
            s.tasks.pop_front();
            queued_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

bool
ThreadPool::tryRunOneTask()
{
    std::function<void()> task;
    if (!popTask(tls_worker.pool == this ? tls_worker.index : -1, task))
        return false;
    task();
    return true;
}

void
ThreadPool::workerLoop(int index)
{
    tls_worker.pool = this;
    tls_worker.index = index;
    for (;;) {
        std::function<void()> task;
        if (popTask(index, task)) {
            task();
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMu_);
        if (stop_)
            return;
        if (queued_.load(std::memory_order_acquire) > 0)
            continue; // a task arrived between popTask and the lock
        sleepCv_.wait(lk);
        if (stop_)
            return;
    }
}

void
ThreadPool::parallelFor(std::int64_t begin, std::int64_t end,
                        const std::function<void(std::int64_t)> &body)
{
    const std::int64_t count = end - begin;
    if (count <= 0)
        return;
    const int workers =
        static_cast<int>(std::min<std::int64_t>(size(), count));

    // Dynamic chunking: small chunks for load balance, but at least
    // one index; the shared cursor is the only coordination point.
    const std::int64_t grain =
        std::max<std::int64_t>(1, count / (8 * workers));
    auto next = std::make_shared<std::atomic<std::int64_t>>(begin);
    auto runChunks = [next, end, grain, &body] {
        for (;;) {
            const std::int64_t lo =
                next->fetch_add(grain, std::memory_order_relaxed);
            if (lo >= end)
                return;
            const std::int64_t hi = std::min(end, lo + grain);
            for (std::int64_t i = lo; i < hi; ++i)
                body(i);
        }
    };

    TaskGroup group(*this);
    for (int w = 1; w < workers; ++w)
        group.run(runChunks);

    // The caller is a worker too; on exception, park the cursor at
    // the end so other chunks stop early, then surface the error
    // after the group drained.
    std::exception_ptr caller_error;
    try {
        runChunks();
    } catch (...) {
        caller_error = std::current_exception();
        next->store(end, std::memory_order_relaxed);
    }
    try {
        group.wait();
    } catch (...) {
        if (!caller_error)
            caller_error = std::current_exception();
    }
    if (caller_error)
        std::rethrow_exception(caller_error);
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

TaskGroup::TaskGroup(ThreadPool &pool)
    : pool_(pool), state_(std::make_shared<State>())
{
}

TaskGroup::~TaskGroup()
{
    try {
        wait();
    } catch (...) {
        // Destructor swallows; call wait() for exceptions.
    }
}

void
TaskGroup::run(std::function<void()> task)
{
    state_->pending.fetch_add(1, std::memory_order_relaxed);
    pool_.submit([st = state_, task = std::move(task)] {
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lk(st->mu);
            if (!st->error)
                st->error = std::current_exception();
        }
        if (st->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lk(st->mu);
            st->cv.notify_all();
        }
    });
}

void
TaskGroup::wait()
{
    State &st = *state_;
    while (st.pending.load(std::memory_order_acquire) > 0) {
        // Help: our own tasks may still sit in a deque, and on a busy
        // pool draining *any* task frees a worker sooner.
        if (pool_.tryRunOneTask())
            continue;
        std::unique_lock<std::mutex> lk(st.mu);
        if (st.pending.load(std::memory_order_acquire) == 0)
            break;
        // Timed wait: a task enqueued by a sibling mid-wait would
        // otherwise never be helped by this (sleeping) thread.
        st.cv.wait_for(lk, std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lk(st.mu);
    if (st.error) {
        std::exception_ptr e = st.error;
        st.error = nullptr;
        std::rethrow_exception(e);
    }
}

void
Latch::countDown(int n)
{
    std::lock_guard<std::mutex> lk(mu_);
    count_ -= n;
    tapacs_assert(count_ >= 0);
    if (count_ == 0)
        cv_.notify_all();
}

void
Latch::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return count_ == 0; });
}

} // namespace tapacs
