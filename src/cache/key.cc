#include "cache/key.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "network/link.hh"
#include "network/topology.hh"

namespace tapacs::cache
{

namespace
{

std::uint64_t
doubleBits(double v)
{
    if (v == 0.0)
        v = 0.0; // canonicalize -0.0
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
CacheKey::hex() const
{
    return strprintf("%016llx%016llx", (unsigned long long)hi,
                     (unsigned long long)lo);
}

KeyBuilder::KeyBuilder()
    : a_(0x6a09e667f3bcc909ull), b_(0xbb67ae8584caa73bull), count_(0)
{
}

KeyBuilder &
KeyBuilder::raw(std::uint64_t bits)
{
    ++count_;
    a_ = mix64(a_ ^ (bits + 0x2545f4914f6cdd1dull * count_));
    b_ = mix64(b_ + (bits ^ 0x9e3779b97f4a7c15ull) + a_);
    return *this;
}

KeyBuilder &
KeyBuilder::f64(double v)
{
    return raw(doubleBits(v));
}

KeyBuilder &
KeyBuilder::str(const std::string &s)
{
    raw(s.size());
    // 8 bytes per round, zero-padded tail.
    for (std::size_t i = 0; i < s.size(); i += 8) {
        std::uint64_t chunk = 0;
        const std::size_t n = std::min<std::size_t>(8, s.size() - i);
        std::memcpy(&chunk, s.data() + i, n);
        raw(chunk);
    }
    return *this;
}

KeyBuilder &
KeyBuilder::vec(const ResourceVector &v)
{
    for (int k = 0; k < kNumResourceKinds; ++k)
        f64(v[static_cast<ResourceKind>(k)]);
    return *this;
}

CacheKey
KeyBuilder::build() const
{
    CacheKey out;
    out.hi = mix64(a_ + 0x452821e638d01377ull * (count_ + 1));
    out.lo = mix64(b_ ^ out.hi);
    return out;
}

namespace
{

void
mixLink(KeyBuilder &b, const LinkModel &link)
{
    b.i64(static_cast<int>(link.kind()))
        .f64(link.peakBandwidth())
        .f64(link.baseLatency())
        .f64(static_cast<double>(link.packetBytes()))
        .f64(link.lambda());
}

} // namespace

CacheKey
deviceModelKey(const DeviceModel &dev)
{
    KeyBuilder b;
    b.str(dev.name())
        .i64(dev.cols())
        .i64(dev.rows())
        .i64(dev.numDies())
        .vec(dev.totalResources())
        .i64(dev.memory().channels)
        .f64(dev.memory().aggregateBandwidth)
        .f64(static_cast<double>(dev.memory().capacity))
        .i64(dev.memory().saturatingPortWidthBits)
        .i64(dev.memoryRow())
        .f64(dev.maxFrequency())
        .f64(dev.onChipBandwidth())
        .f64(static_cast<double>(dev.onChipCapacity()));
    for (const Slot &s : dev.slots()) {
        b.i64(s.coord.col).i64(s.coord.row).i64(s.die).vec(s.capacity).i64(
            s.exposesMemory ? 1 : 0);
    }
    return b.build();
}

CacheKey
clusterKey(const Cluster &cluster)
{
    KeyBuilder b;
    b.key(deviceModelKey(cluster.device()));
    b.i64(static_cast<int>(cluster.nodeTopology().kind()))
        .i64(cluster.nodeTopology().numDevices())
        .i64(cluster.numNodes());
    mixLink(b, cluster.intraLink());
    mixLink(b, cluster.hostLink());
    mixLink(b, cluster.interNodeLink());
    return b.build();
}

} // namespace tapacs::cache
