#include "network/protocols.hh"

namespace tapacs
{

const char *
toString(Orchestration o)
{
    switch (o) {
      case Orchestration::Host: return "host";
      case Orchestration::Device: return "device";
    }
    return "?";
}

const std::vector<CommProtocol> &
commProtocolCatalog()
{
    // Paper Table 10. Throughput is reported by the original papers
    // in GBps there; stored here in Gbps of payload moved per second
    // times 8 is not what the table means — the paper's "Performance
    // (GBps)" column actually tracks the link-level rates (10-90
    // match 10/40/80/90 Gbps networks), so we keep those numbers.
    static const std::vector<CommProtocol> catalog = {
        {"TMD-MPI", Orchestration::Host, 0.26, 10.0},
        {"Galapagos", Orchestration::Device, 0.115, 10.0},
        {"SMI", Orchestration::Device, 0.02, 40.0},
        {"EasyNet", Orchestration::Device, 0.10, 90.0},
        {"ZRLMPI", Orchestration::Host, std::nullopt, 10.0},
        {"ACCL", Orchestration::Host, 0.16, 80.0},
        {"AlveoLink", Orchestration::Device, 0.05, 90.0},
    };
    return catalog;
}

const CommProtocol *
findCommProtocol(const std::string &name)
{
    for (const auto &p : commProtocolCatalog()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

} // namespace tapacs
