#include "obs/trace.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/context.hh"
#include "common/thread_pool.hh"

namespace tapacs::obs
{

namespace
{

/** Render a double for JSON: finite, no inf/nan (which JSON lacks). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

Tracer::Tracer()
{
    epochSeconds_ = monotonicSeconds();
    if (const char *path = std::getenv("TAPACS_TRACE")) {
        if (path[0] != '\0') {
            enable();
            static std::string exit_path;
            exit_path = path;
            std::atexit([] {
                Tracer::instance().write(exit_path);
            });
        }
    }
}

Tracer &
Tracer::instance()
{
    // Leaked for the same reason as ThreadPool::defaultPool(): worker
    // threads may still record during static destruction.
    static Tracer *tracer = new Tracer();
    return *tracer;
}

void
Tracer::enable()
{
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

double
Tracer::nowMicros() const
{
    return (monotonicSeconds() - epochSeconds_) * 1e6;
}

Tracer::ThreadBuffer &
Tracer::localBuffer()
{
    // One buffer per thread for the lifetime of the tracer; the
    // shared_ptr keeps it valid for toJson() even after the thread
    // exits.
    thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
        auto buf = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lk(registryMu_);
        buf->tid = static_cast<int>(buffers_.size());
        const int worker = ThreadPool::currentWorkerIndex();
        if (worker >= 0)
            buf->name = "pool-worker-" + std::to_string(worker);
        else if (buf->tid == 0)
            buf->name = "main";
        else
            buf->name = "thread-" + std::to_string(buf->tid);
        buffers_.push_back(buf);
        return buf;
    }();
    return *buffer;
}

void
Tracer::record(TraceEvent event)
{
    if (!enabled())
        return;
    ThreadBuffer &buf = localBuffer();
    std::lock_guard<std::mutex> lk(buf.mu);
    buf.events.push_back(std::move(event));
}

std::string
Tracer::toJson() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lk(registryMu_);
        buffers = buffers_;
    }

    std::string out;
    out.reserve(4096);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto append = [&out, &first](const std::string &event) {
        if (!first)
            out += ',';
        first = false;
        out += event;
    };

    char buf[128];
    for (const auto &tb : buffers) {
        std::lock_guard<std::mutex> lk(tb->mu);
        // Thread-name metadata so the viewer labels the track.
        append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
               "\"tid\":" +
               std::to_string(tb->tid) + ",\"args\":{\"name\":\"" +
               jsonEscape(tb->name) + "\"}}");
        for (const TraceEvent &ev : tb->events) {
            std::string e = "{\"ph\":\"X\",\"pid\":1,\"tid\":";
            e += std::to_string(tb->tid);
            e += ",\"cat\":\"";
            e += jsonEscape(ev.category);
            e += "\",\"name\":\"";
            e += jsonEscape(ev.name);
            e += "\",\"ts\":";
            e += jsonNumber(ev.tsMicros);
            std::snprintf(buf, sizeof(buf), ",\"dur\":%s",
                          jsonNumber(ev.durMicros).c_str());
            e += buf;
            if (!ev.args.empty())
                e += ",\"args\":{" + ev.args + "}";
            e += '}';
            append(e);
        }
    }
    out += "]}";
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lk(registryMu_);
    for (const auto &tb : buffers_) {
        std::lock_guard<std::mutex> blk(tb->mu);
        tb->events.clear();
    }
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lk(registryMu_);
    std::size_t n = 0;
    for (const auto &tb : buffers_) {
        std::lock_guard<std::mutex> blk(tb->mu);
        n += tb->events.size();
    }
    return n;
}

TraceSpan::TraceSpan(const char *category, std::string name)
{
    Tracer &tracer = Tracer::instance();
    if (!tracer.enabled())
        return;
    active_ = true;
    category_ = category;
    name_ = std::move(name);
    startMicros_ = tracer.nowMicros();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    Tracer &tracer = Tracer::instance();
    TraceEvent ev;
    ev.category = category_;
    ev.name = std::move(name_);
    ev.tsMicros = startMicros_;
    ev.durMicros = tracer.nowMicros() - startMicros_;
    ev.args = std::move(args_);
    // A span that outlives a disable() is dropped: the consumer
    // already snapshotted (disable comes after write), so a late
    // record would only be lost or torn.
    if (tracer.enabled())
        tracer.record(std::move(ev));
}

TraceSpan &
TraceSpan::arg(const char *key, double value)
{
    if (!active_)
        return *this;
    if (!args_.empty())
        args_ += ',';
    args_ += '"';
    args_ += jsonEscape(key);
    args_ += "\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    args_ += buf;
    return *this;
}

TraceSpan &
TraceSpan::arg(const char *key, std::int64_t value)
{
    if (!active_)
        return *this;
    if (!args_.empty())
        args_ += ',';
    args_ += '"';
    args_ += jsonEscape(key);
    args_ += "\":";
    args_ += std::to_string(value);
    return *this;
}

TraceSpan &
TraceSpan::arg(const char *key, const std::string &value)
{
    if (!active_)
        return *this;
    if (!args_.empty())
        args_ += ',';
    args_ += '"';
    args_ += jsonEscape(key);
    args_ += "\":\"";
    args_ += jsonEscape(value);
    args_ += '"';
    return *this;
}

} // namespace tapacs::obs
