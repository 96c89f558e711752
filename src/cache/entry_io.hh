/**
 * @file
 * Text serialization primitives shared by every cache entry format.
 *
 * Numbers are space-separated tokens; doubles use the %a hex-float
 * form, which strtod round-trips exactly — warm results must be
 * bit-identical to cold ones, so no decimal rounding is allowed
 * anywhere in an entry. Readers report failure instead of throwing:
 * a malformed entry (disk corruption, schema drift) must degrade to
 * a cache miss, never to a crashed compile.
 *
 * Used by the compile-cache entry codecs (compile_cache.cc) and the
 * incremental-recompile signature files (delta.cc).
 */

#ifndef TAPACS_CACHE_ENTRY_IO_HH
#define TAPACS_CACHE_ENTRY_IO_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "graph/task_graph.hh"
#include "ilp/solver.hh"

namespace tapacs::cache
{

/** Text entry writer (see file comment for the format rules). */
class EntryWriter
{
  public:
    void
    tag(const char *t)
    {
        out_ += t;
    }
    void
    i64(std::int64_t v)
    {
        out_ += strprintf(" %lld", (long long)v);
    }
    void
    f64(double v)
    {
        out_ += strprintf(" %a", v);
    }
    void
    str(const std::string &s)
    {
        i64(static_cast<std::int64_t>(s.size()));
        out_ += ' ';
        out_ += s;
    }
    void
    vec(const ResourceVector &v)
    {
        for (int k = 0; k < kNumResourceKinds; ++k)
            f64(v[static_cast<ResourceKind>(k)]);
    }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Matching reader; every accessor reports failure as false. */
class EntryReader
{
  public:
    explicit EntryReader(const std::string &s) : s_(s) {}

    bool
    tag(const char *t)
    {
        const std::size_t n = std::strlen(t);
        if (s_.compare(pos_, n, t) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    i64(std::int64_t *out)
    {
        if (!skipSpace())
            return false;
        char *end = nullptr;
        const long long v = std::strtoll(s_.c_str() + pos_, &end, 10);
        if (end == s_.c_str() + pos_)
            return false;
        pos_ = end - s_.c_str();
        *out = v;
        return true;
    }

    bool
    f64(double *out)
    {
        if (!skipSpace())
            return false;
        char *end = nullptr;
        const double v = std::strtod(s_.c_str() + pos_, &end);
        if (end == s_.c_str() + pos_)
            return false;
        pos_ = end - s_.c_str();
        *out = v;
        return true;
    }

    /** An element count: non-negative and at most the bytes left
     *  (every element takes at least one), so a corrupt count fails
     *  here instead of sizing a huge allocation. */
    bool
    count(std::int64_t *out)
    {
        return i64(out) && *out >= 0 &&
               static_cast<std::uint64_t>(*out) <= s_.size() - pos_;
    }

    bool
    str(std::string *out)
    {
        std::int64_t n = 0;
        if (!i64(&n) || n < 0 ||
            pos_ + 1 + static_cast<std::size_t>(n) > s_.size())
            return false;
        ++pos_; // the single separator space
        out->assign(s_, pos_, n);
        pos_ += n;
        return true;
    }

    bool
    vec(ResourceVector *out)
    {
        for (int k = 0; k < kNumResourceKinds; ++k) {
            double v;
            if (!f64(&v))
                return false;
            (*out)[static_cast<ResourceKind>(k)] = v;
        }
        return true;
    }

    bool
    boolean(bool *out)
    {
        std::int64_t v;
        if (!i64(&v))
            return false;
        *out = v != 0;
        return true;
    }

  private:
    bool
    skipSpace()
    {
        while (pos_ < s_.size() && s_[pos_] == ' ')
            ++pos_;
        return pos_ < s_.size();
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

inline void
writeStats(EntryWriter &w, const ilp::SolverStats &s)
{
    w.i64(s.nodesExplored);
    w.i64(s.lpSolves);
    w.i64(s.lpIterations);
    w.i64(s.coldFallbacks);
    w.i64(s.incumbentUpdates);
    w.f64(s.wallSeconds);
    w.i64(s.provenOptimal ? 1 : 0);
    w.i64(s.threadsUsed);
}

inline bool
readStats(EntryReader &r, ilp::SolverStats *s)
{
    std::int64_t threads = 0;
    const bool ok = r.i64(&s->nodesExplored) && r.i64(&s->lpSolves) &&
                    r.i64(&s->lpIterations) &&
                    r.i64(&s->coldFallbacks) &&
                    r.i64(&s->incumbentUpdates) &&
                    r.f64(&s->wallSeconds) && r.boolean(&s->provenOptimal) &&
                    r.i64(&threads);
    s->threadsUsed = static_cast<int>(threads);
    return ok;
}

} // namespace tapacs::cache

#endif // TAPACS_CACHE_ENTRY_IO_HH
