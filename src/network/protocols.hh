/**
 * @file
 * Catalog of published inter-FPGA communication stacks.
 *
 * Paper Table 10 compares prior work addressing the communication
 * challenge: orchestration style (host vs device initiated), FPGA
 * resource overhead, and sustained throughput. The catalog feeds
 * bench_table10_comm_protocols. The simulator itself models only
 * AlveoLink, over healthy links (see network/link.hh).
 */

#ifndef TAPACS_NETWORK_PROTOCOLS_HH
#define TAPACS_NETWORK_PROTOCOLS_HH

#include <optional>
#include <string>
#include <vector>

namespace tapacs
{

/** Who initiates the data transfers. */
enum class Orchestration
{
    Host,
    Device,
};

const char *toString(Orchestration o);

/** One published communication stack (paper Table 10 row). */
struct CommProtocol
{
    std::string name;
    Orchestration orchestration = Orchestration::Device;
    /** FPGA resource overhead as a fraction of the board; nullopt if
     *  the project does not report it. */
    std::optional<double> resourceOverheadFrac;
    /** Sustained data-transfer throughput in Gbits/s. */
    double throughputGbps = 0.0;
};

/** All rows of paper Table 10, AlveoLink last. */
const std::vector<CommProtocol> &commProtocolCatalog();

/** Find a protocol by name; nullptr if unknown. */
const CommProtocol *findCommProtocol(const std::string &name);

} // namespace tapacs

#endif // TAPACS_NETWORK_PROTOCOLS_HH
