/**
 * @file
 * Structured tracing: scoped spans that merge into a Chrome
 * `trace_event` JSON file loadable in
 * `chrome://tracing` / Perfetto.
 *
 * Design goals, in order:
 *  1. Near-zero cost when disabled. Every recording entry point is a
 *     single relaxed atomic load plus a predictable branch; no
 *     formatting, no allocation, no locking happens unless tracing is
 *     on. The compile-flow hot paths (branch-and-bound, simplex) run
 *     with spans compiled in unconditionally.
 *  2. No cross-thread contention when enabled. Each thread appends to
 *     its own buffer; the only shared state is the registry that owns
 *     the buffers (touched once per thread) and the merge at write
 *     time. A per-buffer mutex exists solely so a writer thread can
 *     snapshot a live buffer without a data race — appends take it
 *     uncontended.
 *  3. Thread identity is part of the data. Buffers created on
 *     ThreadPool workers are automatically named `pool-worker-N`, so
 *     branch-and-bound dives and per-device floorplanning passes show
 *     up as separate tracks in the viewer.
 *
 * `TAPACS_TRACE=<path>` turns it on: the whole process is traced
 * and the JSON is written at exit. Tests and benchmarks that want
 * one region drive Tracer::enable() and Tracer::write() directly.
 */

#ifndef TAPACS_OBS_TRACE_HH
#define TAPACS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tapacs::obs
{

/** One recorded complete event (Chrome trace_event phase 'X'). */
struct TraceEvent
{
    /** Category; must point at storage outliving the tracer (string
     *  literals in practice). */
    const char *category = "";
    std::string name;
    /** Microseconds since the trace epoch. */
    double tsMicros = 0.0;
    double durMicros = 0.0;
    /** Pre-rendered JSON object *body* for "args" (no braces), empty
     *  when the event carries none. */
    std::string args;
};

/**
 * Process-wide trace recorder. All members are thread-safe.
 */
class Tracer
{
  public:
    /** The singleton; created on first use. Reads TAPACS_TRACE once
     *  and, when set, enables tracing and writes there at exit. */
    static Tracer &instance();

    /** True when events are being recorded. The fast path for every
     *  probe below. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void enable();
    void disable();

    /** Microseconds since the trace epoch (steady clock). */
    double nowMicros() const;

    /** Append one event to the calling thread's buffer. No-op when
     *  disabled. */
    void record(TraceEvent event);

    /** Render every buffered event as one Chrome trace JSON string. */
    std::string toJson() const;

    /**
     * Write toJson() to @p path.
     *
     * @retval false the file could not be opened/written.
     */
    bool write(const std::string &path) const;

    /** Drop all buffered events (buffers stay registered). */
    void clear();

    /** Total events currently buffered across all threads. */
    std::size_t eventCount() const;

  private:
    struct ThreadBuffer
    {
        int tid = 0;
        std::string name;
        /** Guards events (uncontended on append; taken by toJson). */
        mutable std::mutex mu;
        std::vector<TraceEvent> events;
    };

    Tracer();
    ThreadBuffer &localBuffer();

    std::atomic<bool> enabled_{false};
    /** Trace epoch in steady-clock seconds. */
    double epochSeconds_ = 0.0;

    mutable std::mutex registryMu_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/**
 * RAII scoped span: records one complete ('X') event covering its
 * lifetime. When tracing is disabled at construction the object is
 * inert — no clock read, no allocation, and arg() is a no-op.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *category, std::string name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a key/value to the span's args. */
    TraceSpan &arg(const char *key, double value);
    TraceSpan &arg(const char *key, std::int64_t value);
    TraceSpan &arg(const char *key, const std::string &value);
    TraceSpan &
    arg(const char *key, int value)
    {
        return arg(key, static_cast<std::int64_t>(value));
    }

    /** True when this span is actually recording. */
    bool active() const { return active_; }

  private:
    bool active_ = false;
    const char *category_ = "";
    std::string name_;
    double startMicros_ = 0.0;
    std::string args_;
};

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace tapacs::obs

#endif // TAPACS_OBS_TRACE_HH
