/**
 * @file
 * Inter-FPGA and inter-node link models.
 *
 * TAPA-CS supports a library of transfer protocols (paper section
 * 4.4); the evaluation uses AlveoLink, a RoCE-v2 implementation over
 * the QSFP28 Ethernet ports: 100 Gbps line rate per port, ~1 us
 * round-trip latency, ~90 Gbps sustained throughput for large
 * transfers (paper Fig. 8) and a strong packet-size dependence
 * (paper section 7: a 64 MB transfer takes 6.53 ms with 64 B packets
 * vs 3.96 ms with 128 B packets). The ILP partitioner scales the
 * communication cost of other media relative to Ethernet with the
 * lambda factor (PCIe Gen3x16 = 12.5x, host-routed inter-node
 * 10 Gbps = 10x).
 */

#ifndef TAPACS_NETWORK_LINK_HH
#define TAPACS_NETWORK_LINK_HH

#include <string>

#include "common/units.hh"

namespace tapacs
{

/** Physical transfer medium of a link. */
enum class LinkKind
{
    Ethernet100G, ///< QSFP28 port driven by AlveoLink
    PCIeGen3x16,  ///< PCIe peer-to-peer DMA
    InterNode10G, ///< host-routed 10 Gbps Ethernet between nodes
};

const char *toString(LinkKind kind);

/**
 * Cost/latency model of one link. transferTime() is what the
 * simulator charges; lambda() is what the ILP cost function uses.
 */
class LinkModel
{
  public:
    explicit LinkModel(LinkKind kind);

    LinkKind kind() const { return kind_; }
    const std::string &name() const { return name_; }

    /** Sustained throughput ceiling for large transfers. */
    BytesPerSecond peakBandwidth() const { return peakBandwidth_; }

    /** One-way latency of a minimal message. */
    Seconds baseLatency() const { return baseLatency_; }

    /** Packet size used by the streaming protocol. */
    Bytes packetBytes() const { return packetBytes_; }
    void setPacketBytes(Bytes b) { packetBytes_ = b; }

    /**
     * Time to move @p bytes across the link.
     *
     * Modeled as base latency plus the slower of the wire time at
     * peak bandwidth and the packetization time (packets x per-packet
     * processing cost) — small packets make the protocol engine, not
     * the wire, the bottleneck, reproducing the section-7 behaviour.
     */
    Seconds transferTime(double bytes) const;

    /** Effective throughput bytes/time for a transfer of this size. */
    BytesPerSecond effectiveBandwidth(double bytes) const;

    /**
     * ILP cost scale factor relative to 100 Gbps Ethernet
     * (paper section 4.3: PCIe Gen3x16 costs 12.5x Ethernet).
     */
    double lambda() const { return lambda_; }

  private:
    LinkKind kind_;
    std::string name_;
    BytesPerSecond peakBandwidth_ = 0.0;
    Seconds baseLatency_ = 0.0;
    Bytes packetBytes_ = 1024;
    Seconds perPacketOverhead_ = 0.0;
    double lambda_ = 1.0;
};

/**
 * Resource overhead the AlveoLink networking IPs add per QSFP28 port
 * per board (paper section 5.6): LUT 2.04 %, FF 2.94 %, BRAM 2.06 %,
 * DSP 0 %, URAM 0 % of the device totals.
 */
struct NetworkIpOverhead
{
    double lutFrac = 0.0204;
    double ffFrac = 0.0294;
    double bramFrac = 0.0206;
    double dspFrac = 0.0;
    double uramFrac = 0.0;
};

} // namespace tapacs

#endif // TAPACS_NETWORK_LINK_HH
