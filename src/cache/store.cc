#include "cache/store.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <unistd.h>

#include "common/frame.hh"
#include "common/logging.hh"

namespace tapacs::cache
{

namespace
{

namespace fs = std::filesystem;

obs::MetricsRegistry &
reg()
{
    return obs::MetricsRegistry::global();
}

constexpr std::string_view kEntryMagic = "TCE3";

/** Total: true iff @p raw is exactly one verified entry frame; the
 *  payload lands in @p out. Trailing bytes are corruption. */
bool
decodeDiskEntry(const std::string &raw, std::string *out)
{
    const DecodedFrame frame =
        decodeFrame(raw, kEntryMagic, 0xffffffffu);
    if (frame.check != FrameCheck::Ok || frame.consumed != raw.size())
        return false;
    out->assign(frame.payload);
    return true;
}

/** Where writeDisk stages temps: a subdirectory, so the on-open
 *  sweep lists only temps, never the entries. */
std::string
tempDirOf(const std::string &directory)
{
    return directory + "/.tmp";
}

/** Temps named by builds that staged them next to the entries. */
bool
isLegacyTempName(const std::string &name)
{
    return name.compare(0, 5, ".tmp.") == 0;
}

std::uint64_t
envBytes(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || parsed == 0) {
        warn("ignoring %s='%s' (expected a positive byte count)", name,
             value);
        return fallback;
    }
    return parsed;
}

} // namespace

CacheStore::CacheStore(Options options)
    : options_(std::move(options)),
      hits_(reg().counter("tapacs.cache.hits")),
      diskHits_(reg().counter("tapacs.cache.disk_hits")),
      misses_(reg().counter("tapacs.cache.misses")),
      evictions_(reg().counter("tapacs.cache.evictions")),
      diskCorrupt_(reg().counter("tapacs.cache.disk_corrupt")),
      tmpSwept_(reg().counter("tapacs.cache.tmp_swept")),
      bytesGauge_(reg().gauge("tapacs.cache.bytes"))
{
    if (options_.shards < 1)
        options_.shards = 1;
    shards_.reserve(options_.shards);
    for (int i = 0; i < options_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    if (!options_.directory.empty()) {
        std::error_code ec;
        fs::create_directories(tempDirOf(options_.directory), ec);
        if (ec) {
            warn("cache: cannot create '%s' (%s); disk tier disabled",
                 options_.directory.c_str(), ec.message().c_str());
            options_.directory.clear();
        }
    }
    if (!options_.directory.empty() && options_.tempMaxAgeSeconds >= 0)
        sweepStaleTemps();
}

void
CacheStore::sweepStaleTemps()
{
    const auto now = fs::file_time_type::clock::now();
    std::error_code ec;
    int swept = 0;
    for (fs::directory_iterator it(tempDirOf(options_.directory), ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path path = it->path();
        std::error_code statEc;
        const auto mtime = fs::last_write_time(path, statEc);
        if (statEc)
            continue;
        const double age =
            std::chrono::duration<double>(now - mtime).count();
        if (age < options_.tempMaxAgeSeconds)
            continue;
        std::error_code rmEc;
        if (fs::remove(path, rmEc))
            ++swept;
    }
    if (swept > 0) {
        tmpSwept_.add(swept);
        inform("cache: swept %d stale temp file(s) from '%s'", swept,
               options_.directory.c_str());
    }
}

CacheStore &
CacheStore::global()
{
    static CacheStore *store = [] {
        Options opt;
        opt.capacityBytes =
            envBytes("TAPACS_CACHE_BYTES", opt.capacityBytes);
        if (const char *dir = std::getenv("TAPACS_CACHE_DIR"))
            opt.directory = dir;
        return new CacheStore(std::move(opt));
    }();
    return *store;
}

CacheStore::Shard &
CacheStore::shardFor(const CacheKey &key)
{
    return *shards_[CacheKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const std::string>
CacheStore::get(const CacheKey &key)
{
    Shard &shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            hits_.add();
            return it->second->second;
        }
    }
    if (!options_.directory.empty()) {
        std::string blob;
        if (readDisk(key, &blob)) {
            auto value =
                std::make_shared<const std::string>(std::move(blob));
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                insertLocked(shard, key, value);
            }
            hits_.add();
            diskHits_.add();
            return value;
        }
    }
    misses_.add();
    return nullptr;
}

void
CacheStore::put(const CacheKey &key, std::string value)
{
    auto blob = std::make_shared<const std::string>(std::move(value));
    Shard &shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        insertLocked(shard, key, blob);
    }
    if (!options_.directory.empty())
        writeDisk(key, *blob);
}

void
CacheStore::insertLocked(Shard &shard, const CacheKey &key,
                         std::shared_ptr<const std::string> value)
{
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        shard.bytes -= it->second->second->size();
        totalBytes_.fetch_sub(it->second->second->size(),
                              std::memory_order_relaxed);
        shard.lru.erase(it->second);
        shard.map.erase(it);
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.map[key] = shard.lru.begin();
    const std::uint64_t added = shard.lru.front().second->size();
    shard.bytes += added;
    totalBytes_.fetch_add(added, std::memory_order_relaxed);

    const std::uint64_t budget =
        std::max<std::uint64_t>(1, options_.capacityBytes /
                                       shards_.size());
    while (shard.bytes > budget && shard.lru.size() > 1) {
        const auto &victim = shard.lru.back();
        const std::uint64_t freed = victim.second->size();
        shard.map.erase(victim.first);
        shard.lru.pop_back();
        shard.bytes -= freed;
        totalBytes_.fetch_sub(freed, std::memory_order_relaxed);
        evictions_.add();
    }
    bytesGauge_.set(static_cast<double>(
        totalBytes_.load(std::memory_order_relaxed)));
}

std::string
CacheStore::diskPath(const CacheKey &key) const
{
    return options_.directory + "/" + key.hex() + ".tce";
}

bool
CacheStore::readDisk(const CacheKey &key, std::string *out) const
{
    const std::string path = diskPath(key);
    std::string raw;
    if (!readFile(path, &raw).ok())
        return false;
    if (!decodeDiskEntry(raw, out)) {
        // Anything present but unverifiable — torn write, bit flip,
        // an older entry format — degrades to a miss; the
        // caller recomputes and the rewrite replaces the bad file.
        diskCorrupt_.add();
        warn("cache: corrupt entry '%s' (%zu bytes); unlinking",
             path.c_str(), raw.size());
        std::remove(path.c_str());
        return false;
    }
    return !out->empty();
}

void
CacheStore::writeDisk(const CacheKey &key, const std::string &value) const
{
    // A temp name unique across processes (pid) and threads (counter)
    // + rename keeps concurrent writers from ever exposing a torn
    // entry; last writer wins with identical bytes. The pid is read
    // per write: a forked child inherits the counter.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp = strprintf(
        "%s/%s.%ld.%llu", tempDirOf(options_.directory).c_str(),
        key.hex().c_str(), static_cast<long>(::getpid()),
        (unsigned long long)counter.fetch_add(1));
    // A failed write (ENOSPC) is never published: it would read back
    // as a corrupt entry.
    const Status st = replaceFile(diskPath(key), tmp,
                                  encodeFrame(kEntryMagic, value), false);
    if (!st.ok())
        warn("cache: entry '%s' not stored: %s", diskPath(key).c_str(),
             st.message().c_str());
}

CacheStore::ScrubReport
CacheStore::scrubDirectory(const std::string &directory)
{
    ScrubReport report;
    std::error_code tmpEc;
    for (fs::directory_iterator it(tempDirOf(directory), tmpEc), end;
         !tmpEc && it != end; it.increment(tmpEc)) {
        std::error_code rmEc;
        if (fs::remove(it->path(), rmEc))
            ++report.tempsRemoved;
    }
    std::error_code ec;
    for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path path = it->path();
        if (isLegacyTempName(path.filename().string())) {
            std::error_code rmEc;
            if (fs::remove(path, rmEc))
                ++report.tempsRemoved;
            continue;
        }
        if (path.extension() != ".tce")
            continue;
        std::string raw;
        std::string payload;
        if (readFile(path, &raw).ok() && decodeDiskEntry(raw, &payload)) {
            ++report.entriesOk;
            report.bytesOk += payload.size();
        } else {
            std::error_code rmEc;
            fs::remove(path, rmEc);
            ++report.corruptRemoved;
        }
    }
    return report;
}

} // namespace tapacs::cache
