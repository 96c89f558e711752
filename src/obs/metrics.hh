/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * fixed-bucket histograms with cheap atomic updates and a
 * snapshot/serialize API.
 *
 * This complements common/stats.hh, which is a *per-run* scalar
 * record handed back inside SimResult; the registry here is
 * *process-wide* telemetry. Library layers report through their
 * return values; a process metric exists only where a tool prints it
 * (tapacs-serve's `tapacs.{serve,fleet,cache}.*` tables) or the
 * benchmark reads it (e.g. `tapacs.cache.hits`,
 * `tapacs.partition.fm_moves`). Names follow the
 * `tapacs.<module>.<name>` convention.
 *
 * Update paths are single atomic RMW operations on pre-resolved
 * handles: call `registry.counter("...")` once, keep the reference,
 * then `add()` from any thread. The registry never invalidates a
 * handle (values are node-stable), so handles can be cached across
 * the program's lifetime.
 */

#ifndef TAPACS_OBS_METRICS_HH
#define TAPACS_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tapacs::obs
{

/** Monotonic integer counter. */
class Counter
{
  public:
    void
    add(std::int64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Last-write-wins floating-point gauge. */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one
 * overflow bucket counts the rest. Bounds are fixed at creation.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double value);

    std::int64_t count() const;
    double sum() const;
    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket counts, size bounds().size() + 1 (last = overflow). */
    std::vector<std::int64_t> bucketCounts() const;

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::int64_t>> buckets_;
    std::atomic<std::int64_t> count_{0};
    /** CAS loop: atomic<double>::fetch_add is C++20 but not
     *  universally lock-free; compare_exchange is. */
    std::atomic<double> sum_{0.0};
};

/** Point-in-time copy of every registered metric. */
struct MetricsSnapshot
{
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    struct HistogramData
    {
        std::vector<double> bounds;
        std::vector<std::int64_t> buckets;
        std::int64_t count = 0;
        double sum = 0.0;
    };
    std::map<std::string, HistogramData> histograms;

    bool hasCounter(const std::string &name) const;
    /** Fatal if the name is absent — check hasCounter() first when
     *  unsure. */
    std::int64_t counterValue(const std::string &name) const;

    /**
     * Copy containing only the metrics whose names start with
     * @p prefix (e.g. "tapacs.cache." for the batch driver's cache
     * report), so one subsystem can be rendered without the rest of
     * the process's telemetry.
     */
    MetricsSnapshot filterPrefix(const std::string &prefix) const;

    /** Human-readable aligned text table. */
    std::string renderTable() const;
};

/**
 * Registry of named metrics. Thread-safe; returned references stay
 * valid for the registry's lifetime.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry (leaked, like the default pool). */
    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** Creates with @p bounds on first use; later calls return the
     *  existing histogram regardless of bounds. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds);

    MetricsSnapshot snapshot() const;

    /**
     * Reset to zero every metric whose name starts with @p prefix.
     * Handles stay valid. Used by bench_micro_cache to start its
     * `tapacs.cache.*` counts from zero.
     */
    void resetPrefix(const std::string &prefix);

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace tapacs::obs

#endif // TAPACS_OBS_METRICS_HH
