/**
 * @file
 * Reproduces paper Figure 8: AlveoLink data-transfer throughput
 * (Gbps, per port per FPGA) across transfer sizes — latency-bound for
 * small messages, saturating near 90 Gbps for large ones. Also
 * reproduces the section-7 packet-size sensitivity (64 MB at 64 B vs
 * 128 B packets).
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "network/link.hh"

using namespace tapacs;

int
main()
{
    std::printf("=== Figure 8: AlveoLink throughput vs transfer size "
                "===\n\n");
    LinkModel link(LinkKind::Ethernet100G);

    TextTable t({"Transfer size", "Time", "Throughput (Gbps)", "Bar"});
    for (double bytes : {1.0e3, 4.0e3, 16.0e3, 64.0e3, 256.0e3, 1.0e6,
                         4.0e6, 16.0e6, 64.0e6, 256.0e6, 1.0e9}) {
        const Seconds time = link.transferTime(bytes);
        const double gbps = link.effectiveBandwidth(bytes) * 8.0 / 1.0e9;
        const int bar = static_cast<int>(gbps / 2.0);
        t.addRow({formatBytes(bytes), formatSeconds(time),
                  strprintf("%.2f", gbps), std::string(bar, '#')});
    }
    t.print();
    std::printf("\nsaturation: %.1f Gbps (paper Fig. 8 plateaus at "
                "~90 Gbps)\n\n", link.peakBandwidth() * 8.0 / 1.0e9);

    // Section 7: packet-size sensitivity.
    LinkModel pkt64(LinkKind::Ethernet100G);
    pkt64.setPacketBytes(64);
    LinkModel pkt128(LinkKind::Ethernet100G);
    pkt128.setPacketBytes(128);
    std::printf("section 7 check: 64 MB @ 64 B packets = %s "
                "(paper 6.53 ms); @ 128 B packets = %s (paper 3.96 ms)\n",
                formatSeconds(pkt64.transferTime(64.0e6)).c_str(),
                formatSeconds(pkt128.transferTime(64.0e6)).c_str());
    return 0;
}
