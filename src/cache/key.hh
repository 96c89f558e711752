/**
 * @file
 * Content-addressed cache keys.
 *
 * Every memoizable artifact of the compile flow (per-task HLS
 * estimates, level-1 inter-FPGA solutions, level-2 placements + HBM
 * bindings) is addressed by a 128-bit key derived purely from the
 * *content* that determines the artifact: graph structure and
 * profiles, device model, topology, and the cost-relevant options.
 * Two requests with equal keys are guaranteed (up to hash collision,
 * ~2^-128) to produce byte-identical artifacts, which is what lets
 * the cache return stored results without re-running a solver.
 *
 * Graph content is hashed positionally: vertices and edges in id
 * order, each with the attributes its solver reads. Both floorplan
 * tiers visit vertices by id (coarsening tie-breaks, greedy seeds,
 * FM walks, bisections), so a relabeled copy of a design is a
 * different solver input and gets a different key. Vertex names are
 * excluded — they are labels, not content.
 */

#ifndef TAPACS_CACHE_KEY_HH
#define TAPACS_CACHE_KEY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "network/cluster.hh"

namespace tapacs::cache
{

/** A 128-bit content address. Value-equality is the cache contract. */
struct CacheKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const CacheKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const CacheKey &o) const { return !(*this == o); }
    bool operator<(const CacheKey &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }

    /** 32 lowercase hex characters (the on-disk entry name). */
    std::string hex() const;
};

/** Hash functor for unordered containers keyed by CacheKey. */
struct CacheKeyHash
{
    std::size_t
    operator()(const CacheKey &k) const noexcept
    {
        return static_cast<std::size_t>(
            k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
    }
};

/** SplitMix64 finalizer: a cheap, well-mixed 64 -> 64 bit scrambler. */
std::uint64_t mix64(std::uint64_t x);

/**
 * Streaming builder for CacheKeys. Feed values in a fixed order; the
 * resulting key depends on every value and on the feed order. Doubles
 * are hashed by bit pattern (with -0.0 canonicalized to 0.0) so keys
 * are exact — no epsilon, no rounding.
 */
class KeyBuilder
{
  public:
    KeyBuilder();

    KeyBuilder &raw(std::uint64_t bits);
    KeyBuilder &
    i64(std::int64_t v)
    {
        return raw(static_cast<std::uint64_t>(v));
    }
    KeyBuilder &f64(double v);
    KeyBuilder &str(const std::string &s);
    KeyBuilder &
    key(const CacheKey &k)
    {
        raw(k.hi);
        return raw(k.lo);
    }
    KeyBuilder &vec(const ResourceVector &v);

    /** Finalize (non-destructive; the builder can keep absorbing). */
    CacheKey build() const;

  private:
    std::uint64_t a_;
    std::uint64_t b_;
    std::uint64_t count_;
};

/**
 * Content key of the target cluster: device model (slot grid,
 * capacities, memory system, clocking), per-node topology, node
 * count, and all three link models.
 */
CacheKey clusterKey(const Cluster &cluster);

/**
 * Content key of the device model alone (no topology, no links).
 * The per-device level-2 solve sees only one device, so its cache
 * entries key on this instead of the full clusterKey and survive
 * topology or cluster-size changes.
 */
CacheKey deviceModelKey(const DeviceModel &dev);

} // namespace tapacs::cache

#endif // TAPACS_CACHE_KEY_HH
