#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace tapacs::obs
{

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    tapacs_assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void
Histogram::observe(double value)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed)) {
    }
}

std::int64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::vector<std::int64_t>
Histogram::bucketCounts() const
{
    std::vector<std::int64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

bool
MetricsSnapshot::hasCounter(const std::string &name) const
{
    return counters.count(name) != 0;
}

bool
MetricsSnapshot::hasGauge(const std::string &name) const
{
    return gauges.count(name) != 0;
}

std::int64_t
MetricsSnapshot::counterValue(const std::string &name) const
{
    const auto it = counters.find(name);
    if (it == counters.end())
        fatal("no counter named '%s' in snapshot", name.c_str());
    return it->second;
}

double
MetricsSnapshot::gaugeValue(const std::string &name) const
{
    const auto it = gauges.find(name);
    if (it == gauges.end())
        fatal("no gauge named '%s' in snapshot", name.c_str());
    return it->second;
}

MetricsSnapshot
MetricsSnapshot::filterPrefix(const std::string &prefix) const
{
    const auto matches = [&](const std::string &name) {
        return name.compare(0, prefix.size(), prefix) == 0;
    };
    MetricsSnapshot out;
    for (const auto &[name, value] : counters) {
        if (matches(name))
            out.counters.emplace(name, value);
    }
    for (const auto &[name, value] : gauges) {
        if (matches(name))
            out.gauges.emplace(name, value);
    }
    for (const auto &[name, value] : histograms) {
        if (matches(name))
            out.histograms.emplace(name, value);
    }
    return out;
}

std::string
MetricsSnapshot::renderTable() const
{
    std::size_t width = 0;
    for (const auto &[name, _] : counters)
        width = std::max(width, name.size());
    for (const auto &[name, _] : gauges)
        width = std::max(width, name.size());
    for (const auto &[name, _] : histograms)
        width = std::max(width, name.size());

    std::string out;
    char buf[256];
    for (const auto &[name, value] : counters) {
        std::snprintf(buf, sizeof(buf), "%-*s  %lld\n",
                      static_cast<int>(width), name.c_str(),
                      static_cast<long long>(value));
        out += buf;
    }
    for (const auto &[name, value] : gauges) {
        std::snprintf(buf, sizeof(buf), "%-*s  %.9g\n",
                      static_cast<int>(width), name.c_str(), value);
        out += buf;
    }
    for (const auto &[name, h] : histograms) {
        std::snprintf(buf, sizeof(buf),
                      "%-*s  count=%lld sum=%.9g\n",
                      static_cast<int>(width), name.c_str(),
                      static_cast<long long>(h.count), h.sum);
        out += buf;
    }
    return out;
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked so metrics recorded during static destruction (worker
    // threads, atexit hooks) never touch a destroyed registry.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    MetricsSnapshot snap;
    for (const auto &[name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = g->value();
    for (const auto &[name, h] : histograms_) {
        MetricsSnapshot::HistogramData data;
        data.bounds = h->bounds();
        data.buckets = h->bucketCounts();
        data.count = h->count();
        data.sum = h->sum();
        snap.histograms[name] = std::move(data);
    }
    return snap;
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[_, c] : counters_)
        c->reset();
    for (const auto &[_, g] : gauges_)
        g->reset();
    for (const auto &[_, h] : histograms_)
        h->reset();
}

void
MetricsRegistry::resetPrefix(const std::string &prefix)
{
    const auto matches = [&prefix](const std::string &name) {
        return name.compare(0, prefix.size(), prefix) == 0;
    };
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[name, c] : counters_) {
        if (matches(name))
            c->reset();
    }
    for (const auto &[name, g] : gauges_) {
        if (matches(name))
            g->reset();
    }
    for (const auto &[name, h] : histograms_) {
        if (matches(name))
            h->reset();
    }
}

} // namespace tapacs::obs
