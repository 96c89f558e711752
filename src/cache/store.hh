/**
 * @file
 * Thread-safe content-addressed blob store with an in-memory LRU tier
 * and an optional on-disk tier.
 *
 * The store maps 128-bit CacheKeys to immutable serialized entries
 * (plain strings). The in-memory tier is sharded — each shard owns
 * its own mutex, LRU list and byte budget — so concurrent batch
 * compiles rarely contend on the same lock. When a directory is
 * configured (explicitly or via TAPACS_CACHE_DIR), every put is
 * written through as `<dir>/<key-hex>.tce` (a temp file staged in
 * `<dir>/.tmp/` under a per-process name, then renamed into place, so
 * concurrent writers never expose a torn entry) and a memory miss
 * falls back to a disk read, which promotes the entry back into
 * memory. Entries are immutable once stored: a put under an existing
 * key replaces the blob, but content-addressing means the replacement
 * carries identical bytes.
 *
 * Disk entries are checksummed: each `.tce` file is exactly one
 * `TCE3` frame (common/frame.hh holds the format table), so a
 * truncated or bit-flipped entry (power loss, bad disk, chaos
 * injection) degrades to a typed *miss* — the corrupt file is
 * counted, unlinked and recomputed — instead of deserializing
 * garbage into a solver artifact. A write that fails (ENOSPC) is
 * never published. Stale temps leaked by a crash between the temp
 * write and the rename are swept on store open once they exceed
 * Options::tempMaxAgeSeconds. The sweep lists only `<dir>/.tmp/`
 * (created on open, on the entries' filesystem so the rename stays
 * atomic), so opening a store costs the same however many entries
 * the directory holds. scrubDirectory() verifies entries and removes
 * temps offline (the `tapacs-cache --scrub` tool), including
 * top-level `.tmp.*` temps left by builds that staged them next to
 * the entries.
 *
 * Telemetry (process-wide, via obs::MetricsRegistry):
 *   tapacs.cache.hits         counter, memory + disk hits
 *   tapacs.cache.disk_hits    counter, hits served from the disk tier
 *   tapacs.cache.misses       counter
 *   tapacs.cache.evictions    counter, LRU evictions
 *   tapacs.cache.disk_corrupt counter, checksum-failed disk entries
 *   tapacs.cache.tmp_swept    counter, stale temp files removed
 *   tapacs.cache.bytes        gauge, bytes resident in memory
 */

#ifndef TAPACS_CACHE_STORE_HH
#define TAPACS_CACHE_STORE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/key.hh"
#include "obs/metrics.hh"

namespace tapacs::cache
{

/** Sharded LRU blob store; see file comment. */
class CacheStore
{
  public:
    struct Options
    {
        /** In-memory budget across all shards; the LRU evicts past
         *  it. Entries here are small (a few hundred bytes to a few
         *  KiB), so the default holds hundreds of thousands. */
        std::uint64_t capacityBytes = 256ull << 20;
        /** On-disk tier directory; empty = memory only. Created on
         *  first use if missing. */
        std::string directory;
        /** Lock shards (power of two). */
        int shards = 16;
        /**
         * Stale-temp sweep threshold: files in `<dir>/.tmp/` older
         * than this are removed when the store opens (a crash between
         * temp write and rename leaks them; a healthy writer publishes
         * in well under a second). 0 sweeps every temp on open; negative
         * disables the sweep.
         */
        double tempMaxAgeSeconds = 3600.0;
    };

    CacheStore() : CacheStore(Options()) {}
    explicit CacheStore(Options options);

    CacheStore(const CacheStore &) = delete;
    CacheStore &operator=(const CacheStore &) = delete;

    /**
     * Look an entry up. Returns the immutable blob, or nullptr on a
     * miss. A disk-tier hit promotes the entry into memory.
     */
    std::shared_ptr<const std::string> get(const CacheKey &key);

    /** Store (or replace) an entry; writes through to disk if
     *  configured. */
    void put(const CacheKey &key, std::string value);

    /** Bytes currently resident in the memory tier. */
    std::uint64_t bytesInMemory() const
    {
        return totalBytes_.load(std::memory_order_relaxed);
    }

    const std::string &directory() const { return options_.directory; }

    /** What one offline verification pass over a cache dir found. */
    struct ScrubReport
    {
        /** `.tce` entries whose checksum verified. */
        int entriesOk = 0;
        /** Corrupt entries (bad header, size or CRC64) unlinked. */
        int corruptRemoved = 0;
        /** Temps removed from `.tmp/` and legacy top-level `.tmp.*`
         *  names (all of them, any age). */
        int tempsRemoved = 0;
        /** Payload bytes across the surviving entries. */
        std::uint64_t bytesOk = 0;
    };

    /**
     * Verify and prune @p directory offline: checksum every `.tce`
     * entry, unlink the corrupt ones, remove every temp in `.tmp/`
     * and every legacy top-level `.tmp.*` leftover. Safe to run
     * against a live cache dir — a concurrent writer's freshly
     * renamed entry either verifies or is recomputed by its owner on
     * the resulting miss.
     */
    static ScrubReport scrubDirectory(const std::string &directory);

    /**
     * The process-wide store (leaked, like the default thread pool).
     * Reads TAPACS_CACHE_DIR (on-disk tier location) and
     * TAPACS_CACHE_BYTES (memory budget) once, at first use.
     */
    static CacheStore &global();

  private:
    struct Shard
    {
        std::mutex mu;
        /** Most-recently-used at the front. */
        std::list<std::pair<CacheKey, std::shared_ptr<const std::string>>>
            lru;
        std::unordered_map<
            CacheKey,
            std::list<std::pair<CacheKey,
                                std::shared_ptr<const std::string>>>::
                iterator,
            CacheKeyHash>
            map;
        std::uint64_t bytes = 0;
    };

    Shard &shardFor(const CacheKey &key);
    /** Insert/replace + evict past the shard budget. Caller holds
     *  shard.mu. */
    void insertLocked(Shard &shard, const CacheKey &key,
                      std::shared_ptr<const std::string> value);
    bool readDisk(const CacheKey &key, std::string *out) const;
    void writeDisk(const CacheKey &key, const std::string &value) const;
    std::string diskPath(const CacheKey &key) const;
    /** Remove `.tmp/` temps older than tempMaxAgeSeconds. */
    void sweepStaleTemps();

    Options options_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> totalBytes_{0};

    obs::Counter &hits_;
    obs::Counter &diskHits_;
    obs::Counter &misses_;
    obs::Counter &evictions_;
    obs::Counter &diskCorrupt_;
    obs::Counter &tmpSwept_;
    obs::Gauge &bytesGauge_;
};

} // namespace tapacs::cache

#endif // TAPACS_CACHE_STORE_HH
