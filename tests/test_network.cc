/**
 * @file
 * Tests for topologies (paper eq. 3/4), link models (AlveoLink,
 * Fig. 8 and section 7), clusters (section 5.7) and the protocol
 * catalog (Table 10).
 */

#include <gtest/gtest.h>

#include <bit>

#include "network/cluster.hh"
#include "network/link.hh"
#include "network/protocols.hh"
#include "network/topology.hh"

namespace tapacs
{
namespace
{

TEST(Topology, ChainMatchesEq3)
{
    // Paper eq. 3: dist = |device_num_i - device_num_j|.
    Topology chain(TopologyKind::Chain, 6);
    for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 6; ++j)
            EXPECT_EQ(chain.dist(i, j), std::abs(i - j));
    }
    EXPECT_EQ(chain.diameter(), 5);
}

TEST(Topology, RingMatchesEq4)
{
    // Paper: dist = min(|i-j|, total - |i-j|).
    Topology ring(TopologyKind::Ring, 8);
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
            const int lin = std::abs(i - j);
            EXPECT_EQ(ring.dist(i, j), std::min(lin, 8 - lin));
        }
    }
    EXPECT_EQ(ring.diameter(), 4);
}

TEST(Topology, StarHubIsDeviceZero)
{
    Topology star(TopologyKind::Star, 5);
    for (int i = 1; i < 5; ++i) {
        EXPECT_EQ(star.dist(0, i), 1);
        for (int j = 1; j < 5; ++j)
            EXPECT_EQ(star.dist(i, j), i == j ? 0 : 2);
    }
}

TEST(Topology, HypercubeIsPopcount)
{
    Topology cube(TopologyKind::Hypercube, 8);
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
            EXPECT_EQ(cube.dist(i, j),
                      std::popcount(static_cast<unsigned>(i ^ j)));
        }
    }
    EXPECT_EQ(cube.diameter(), 3);
}

TEST(Topology, Mesh2x2)
{
    Topology mesh(TopologyKind::Mesh2D, 4);
    EXPECT_EQ(mesh.dist(0, 3), 2);
    EXPECT_EQ(mesh.dist(0, 1), 1);
    EXPECT_EQ(mesh.diameter(), 2);
}

TEST(Topology, FullyConnected)
{
    Topology full(TopologyKind::FullyConnected, 5);
    EXPECT_EQ(full.diameter(), 1);
}

TEST(TopologyDeath, HypercubeNeedsPowerOfTwo)
{
    EXPECT_DEATH(Topology(TopologyKind::Hypercube, 6), "power-of-two");
}

/** Metric properties of every topology over several sizes. */
class TopologyMetric
    : public ::testing::TestWithParam<std::tuple<TopologyKind, int>>
{
};

TEST_P(TopologyMetric, DistIsAMetric)
{
    const auto [kind, n] = GetParam();
    Topology t(kind, n);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(t.dist(i, i), 0);
        for (int j = 0; j < n; ++j) {
            EXPECT_EQ(t.dist(i, j), t.dist(j, i)); // symmetry
            if (i != j) {
                EXPECT_GE(t.dist(i, j), 1);
            }
            for (int k = 0; k < n; ++k) { // triangle inequality
                EXPECT_LE(t.dist(i, j),
                          t.dist(i, k) + t.dist(k, j));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TopologyMetric,
    ::testing::Values(
        std::make_tuple(TopologyKind::Chain, 5),
        std::make_tuple(TopologyKind::Ring, 4),
        std::make_tuple(TopologyKind::Ring, 7),
        std::make_tuple(TopologyKind::Star, 6),
        std::make_tuple(TopologyKind::Mesh2D, 9),
        std::make_tuple(TopologyKind::Hypercube, 8),
        std::make_tuple(TopologyKind::FullyConnected, 5)));

// ---- Links ------------------------------------------------------------

TEST(LinkModel, AlveoLinkConstants)
{
    LinkModel link(LinkKind::Ethernet100G);
    // Fig. 8: ~90 Gbps sustained; 1 us RTT (0.5 us one-way).
    EXPECT_DOUBLE_EQ(link.peakBandwidth(), 90.0e9 / 8.0);
    EXPECT_DOUBLE_EQ(link.baseLatency(), 0.5e-6);
    EXPECT_DOUBLE_EQ(link.lambda(), 1.0);
}

TEST(LinkModel, PcieLambdaIs12p5)
{
    // Paper section 4.3: PCIe Gen3x16 costs 12.5x Ethernet in the
    // ILP (effective transfer cost), with a 1250 ns round trip
    // (section 6.2) and ~12 GB/s raw bandwidth.
    LinkModel pcie(LinkKind::PCIeGen3x16);
    EXPECT_DOUBLE_EQ(pcie.lambda(), 12.5);
    EXPECT_DOUBLE_EQ(pcie.peakBandwidth(), 12.0e9);
    EXPECT_GT(pcie.baseLatency(),
              LinkModel(LinkKind::Ethernet100G).baseLatency());
}

TEST(LinkModel, InterNodeTenTimesSlower)
{
    // Paper Table 9 / section 5.7: 10 Gbps, ~10x slower.
    LinkModel inode(LinkKind::InterNode10G);
    EXPECT_DOUBLE_EQ(inode.peakBandwidth(), 10.0e9 / 8.0);
    EXPECT_DOUBLE_EQ(inode.lambda(), 10.0);
}

TEST(LinkModel, ThroughputSaturatesWithTransferSize)
{
    // Fig. 8 shape: small transfers are latency-bound, large ones
    // approach the 90 Gbps ceiling monotonically.
    LinkModel link(LinkKind::Ethernet100G);
    double prev = 0.0;
    for (double bytes : {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}) {
        const double bw = link.effectiveBandwidth(bytes);
        EXPECT_GE(bw, prev * 0.999);
        prev = bw;
    }
    // Large transfers reach >= 95 % of peak.
    EXPECT_GT(link.effectiveBandwidth(1e9), 0.95 * link.peakBandwidth());
    // Tiny transfers are latency-bound, far below peak.
    EXPECT_LT(link.effectiveBandwidth(64.0), 0.02 * link.peakBandwidth());
}

TEST(LinkModel, SmallPacketsSlowTransfers)
{
    // Paper section 7: 64 MB takes 6.53 ms at 64 B packets vs
    // 3.96 ms at 128 B — halving packet count roughly halves the
    // packetization cost. Our model reproduces the 64 B point and
    // the ordering.
    LinkModel link(LinkKind::Ethernet100G);
    link.setPacketBytes(64);
    const Seconds t64 = link.transferTime(64.0e6);
    link.setPacketBytes(128);
    const Seconds t128 = link.transferTime(64.0e6);
    EXPECT_NEAR(t64, 6.53e-3, 0.8e-3);
    EXPECT_LT(t128, t64);
    // At large packets the wire, not the packet engine, is the
    // bottleneck, so time can only improve down to the wire floor.
    link.setPacketBytes(1024);
    EXPECT_LE(link.transferTime(64.0e6), t128);
}

TEST(LinkModel, TransferTimeMonotoneInBytes)
{
    LinkModel link(LinkKind::Ethernet100G);
    Seconds prev = 0.0;
    for (double bytes : {0.0, 1e3, 1e6, 1e9}) {
        const Seconds t = link.transferTime(bytes);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

// ---- Cluster ------------------------------------------------------------

TEST(Cluster, PaperTestbedSingleNode)
{
    Cluster c = makePaperTestbed(4);
    EXPECT_EQ(c.numDevices(), 4);
    EXPECT_EQ(c.numNodes(), 1);
    EXPECT_EQ(c.devicesPerNode(), 4);
    EXPECT_EQ(c.nodeTopology().kind(), TopologyKind::Ring);
    EXPECT_EQ(c.device().name(), "U55C");
}

TEST(Cluster, PaperTestbedTwoNodes)
{
    Cluster c = makePaperTestbed(8);
    EXPECT_EQ(c.numNodes(), 2);
    EXPECT_EQ(c.nodeOf(3), 0);
    EXPECT_EQ(c.nodeOf(4), 1);
    EXPECT_EQ(c.localIndex(5), 1);
    EXPECT_TRUE(c.sameNode(0, 3));
    EXPECT_FALSE(c.sameNode(3, 4));
}

TEST(ClusterDeath, RequiresFullNodes)
{
    EXPECT_DEATH(makePaperTestbed(6), "multiple of 4");
}

TEST(Cluster, CostDistanceIntraVsInter)
{
    Cluster c = makePaperTestbed(8);
    EXPECT_DOUBLE_EQ(c.costDistance(0, 0), 0.0);
    // One ring hop at Ethernet lambda 1.
    EXPECT_DOUBLE_EQ(c.costDistance(0, 1), 1.0);
    // Opposite side of the ring: 2 hops.
    EXPECT_DOUBLE_EQ(c.costDistance(0, 2), 2.0);
    // Crossing nodes pays 2 PCIe hops + the 10 Gbps link:
    // 2 * 12.5 + 10 = 35, far above any intra-node distance.
    EXPECT_DOUBLE_EQ(c.costDistance(0, 4), 35.0);
    EXPECT_GT(c.costDistance(0, 4), c.costDistance(0, 2));
}

TEST(Cluster, CostDistanceTableMatchesFormula)
{
    // costDistance reads a table filled once per cluster; every entry
    // must equal the eq. 2-4 distance recomputed here, bit for bit.
    const Cluster clusters[] = {
        Cluster(makeU55C(), Topology(TopologyKind::Ring, 8)),
        Cluster(makeU55C(), Topology(TopologyKind::Mesh2D, 8)),
        Cluster(makeU55C(), Topology(TopologyKind::Hypercube, 8)),
        makePaperTestbed(8), // two ring nodes, host-routed between
    };
    for (const Cluster &c : clusters) {
        const int f = c.numDevices();
        for (DeviceId a = 0; a < f; ++a) {
            for (DeviceId b = 0; b < f; ++b) {
                double want = 0.0;
                if (c.nodeOf(a) != c.nodeOf(b)) {
                    want = 2.0 * c.hostLink().lambda() +
                           c.interNodeLink().lambda();
                } else if (a != b) {
                    want = c.nodeTopology().dist(c.localIndex(a),
                                                 c.localIndex(b)) *
                           c.intraLink().lambda();
                }
                EXPECT_EQ(c.costDistance(a, b), want)
                    << toString(c.nodeTopology().kind()) << " x"
                    << c.numNodes() << " " << a << "->" << b;
            }
        }
    }
    const Cluster &twoNodes = clusters[3];
    EXPECT_EQ(twoNodes.costDistance(1, 6), 2.0 * 12.5 + 10.0);

    // The lookup keeps the range check on both devices.
    const Cluster &ring = clusters[0];
    EXPECT_DEATH(ring.costDistance(0, 8), "assertion");
    EXPECT_DEATH(ring.costDistance(8, 0), "assertion");
    EXPECT_DEATH(ring.costDistance(-1, -1), "assertion");
}

// ---- Protocol catalog ---------------------------------------------------

TEST(Protocols, Table10Rows)
{
    const auto &catalog = commProtocolCatalog();
    ASSERT_EQ(catalog.size(), 7u);
    const CommProtocol *alveo = findCommProtocol("AlveoLink");
    ASSERT_NE(alveo, nullptr);
    EXPECT_EQ(alveo->orchestration, Orchestration::Device);
    EXPECT_DOUBLE_EQ(*alveo->resourceOverheadFrac, 0.05);
    EXPECT_DOUBLE_EQ(alveo->throughputGbps, 90.0);

    // EasyNet matches AlveoLink's throughput at twice the overhead
    // (the comparison the paper highlights in section 6.1).
    const CommProtocol *easynet = findCommProtocol("EasyNet");
    ASSERT_NE(easynet, nullptr);
    EXPECT_DOUBLE_EQ(easynet->throughputGbps, alveo->throughputGbps);
    EXPECT_DOUBLE_EQ(*easynet->resourceOverheadFrac, 0.10);

    // ZRLMPI does not report overhead.
    EXPECT_FALSE(
        findCommProtocol("ZRLMPI")->resourceOverheadFrac.has_value());
    EXPECT_EQ(findCommProtocol("nope"), nullptr);
}

} // namespace
} // namespace tapacs
