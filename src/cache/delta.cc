#include "cache/delta.hh"

#include "cache/entry_io.hh"
#include "common/logging.hh"

namespace tapacs::cache
{

std::string
CompileDelta::summary() const
{
    if (!attempted)
        return "cold compile (no prior)";
    return strprintf(
        "hls %d/%d reused; L1 %s; L2 %d/%d devices reused", hlsReused,
        hlsTotal, l1Reused ? "reused" : "re-solved", devicesReused,
        devicesTotal);
}

std::string
serializeSignature(const CompileSignature &sig)
{
    EntryWriter w;
    w.tag("tapacs-sig3");
    w.i64(sig.schemaVersion);
    w.i64(static_cast<std::int64_t>(sig.artifacts.size()));
    for (const Artifact &a : sig.artifacts) {
        w.str(a.tier);
        w.i64(static_cast<std::int64_t>(a.key.hi));
        w.i64(static_cast<std::int64_t>(a.key.lo));
        w.str(a.blob);
    }
    return w.take();
}

bool
parseSignature(const std::string &text, CompileSignature *out)
{
    EntryReader r(text);
    CompileSignature parsed;
    std::int64_t schema = 0, hi = 0, lo = 0, count = 0;
    if (!r.tag("tapacs-sig3") || !r.i64(&schema) || !r.count(&count))
        return false;
    parsed.schemaVersion = static_cast<int>(schema);
    parsed.artifacts.resize(count);
    for (std::int64_t i = 0; i < count; ++i) {
        Artifact &a = parsed.artifacts[i];
        if (!r.str(&a.tier) || !r.i64(&hi) || !r.i64(&lo) ||
            !r.str(&a.blob))
            return false;
        a.key.hi = static_cast<std::uint64_t>(hi);
        a.key.lo = static_cast<std::uint64_t>(lo);
    }
    *out = std::move(parsed);
    return true;
}

} // namespace tapacs::cache
