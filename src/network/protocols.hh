/**
 * @file
 * Catalog of published inter-FPGA communication stacks, plus the
 * reliable-transport layer the simulator runs over faulty links.
 *
 * Paper Table 10 compares prior work addressing the communication
 * challenge: orchestration style (host vs device initiated), FPGA
 * resource overhead, and sustained throughput. The catalog feeds
 * bench_table10_comm_protocols and lets the compiler swap the
 * communication substrate for what-if studies.
 *
 * ReliableTransport models what RoCE-v2 gives AlveoLink for free on
 * healthy links but must earn on faulty ones: per-message timeout
 * detection, bounded exponential backoff with deterministic jitter,
 * and retransmission until delivery or a retry budget is exhausted.
 * Retry/timeout/flap counters are surfaced through the process
 * metrics registry (`tapacs.net.retries`, `tapacs.net.timeouts`,
 * `tapacs.net.link_flaps`).
 */

#ifndef TAPACS_NETWORK_PROTOCOLS_HH
#define TAPACS_NETWORK_PROTOCOLS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hh"
#include "network/faults.hh"

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

/** Retry policy of the reliable transport. */
struct ReliableTransportConfig
{
    /** Time the sender waits for an ack before declaring a loss. */
    Seconds ackTimeout = 10.0e-6;
    /** Retransmissions allowed per message before giving up. */
    int maxRetries = 16;
    /** First backoff interval; doubles per retry (bounded below). */
    Seconds backoffBase = 2.0e-6;
    /** Ceiling on any single backoff interval. */
    Seconds backoffCap = 1.0e-3;
    /** Deterministic-jitter spread: each backoff is scaled by a
     *  factor in [1, 1 + backoffJitterFrac) drawn from the fault
     *  seed, decorrelating retry storms without wall-clock
     *  randomness. */
    double backoffJitterFrac = 0.25;

    /**
     * Ok when the policy is usable: maxRetries >= 0, all intervals
     * non-negative, cap >= base, jitter fraction non-negative.
     * InvalidInput otherwise.
     */
    Status validate() const;
};

/**
 * The transport's backoff schedule as a pure function: interval to
 * sit out after attempt @p attempt (0-based) fails, i.e.
 * min(backoffBase * 2^attempt, backoffCap), before jitter. Shared
 * with the serving supervisor's backoff so serving retries follow
 * the same bounded-exponential curve as the wire protocol.
 */
Seconds boundedBackoff(const ReliableTransportConfig &config, int attempt);

/** Outcome of one reliable message delivery. */
struct TransferOutcome
{
    /** False when the link never recovered or retries ran out. */
    bool delivered = false;
    /** Transmission attempts made (>= 1). */
    int attempts = 0;
    /** Retransmissions (attempts - 1 when delivered). */
    int retries = 0;
    /** Losses detected by ack timeout. */
    int timeouts = 0;
    /** Total backoff the sender sat out. */
    Seconds backoffSeconds = 0.0;
    /** Total time spent parked waiting for a downed link to return. */
    Seconds linkDownWaitSeconds = 0.0;
    /** Delivery completion time (valid only when delivered). */
    Seconds finishTime = 0.0;
};

/**
 * Reliable message delivery over a possibly-faulty link.
 *
 * The transport owns retry *policy*; the caller owns the physical
 * resource, passed in as an acquire function (typically
 * sim::Server::acquire) so the sender-side occupancy of every attempt
 * — including retransmissions — serializes on the real port. With a
 * null injector the transport degenerates to a single attempt with no
 * overhead, byte-identical to the pre-fault model.
 */
class ReliableTransport
{
  public:
    /** Reserve the physical path: (earliest, duration) -> done time. */
    using AcquireFn = std::function<Seconds(Seconds, Seconds)>;

    /**
     * Validating factory: returns InvalidInput for a nonsense retry
     * policy (negative retries, negative intervals, cap below base)
     * instead of constructing a transport at all. Library code —
     * anything reachable from a serving request — must use this.
     */
    static StatusOr<ReliableTransport>
    create(ReliableTransportConfig config,
           const FaultInjector *injector = nullptr);

    /**
     * Direct construction never kills the process: an invalid config
     * is sanitized to the nearest usable policy and the rejection is
     * recorded in status(), so legacy call sites keep working while
     * the defect stays observable.
     */
    explicit ReliableTransport(ReliableTransportConfig config,
                               const FaultInjector *injector = nullptr);

    /** Ok, or InvalidInput when the constructor sanitized the config. */
    const Status &status() const { return status_; }

    /**
     * Deliver one message from @p a to @p b.
     *
     * @param messageId caller-unique id (feeds the deterministic
     *        drop/jitter draws; reuse implies identical fate).
     * @param earliest the message is ready to send at this time.
     * @param occupancy sender-side busy time of one healthy attempt
     *        (stretched by degraded bandwidth and jitter).
     * @param flightLatency extra wire latency after the sender
     *        finishes (hop latency; not re-paid on retransmit since
     *        the loss is detected by timeout, not by flight).
     * @param acquire serializes each attempt on the physical port.
     */
    TransferOutcome send(DeviceId a, DeviceId b,
                         std::uint64_t messageId, Seconds earliest,
                         Seconds occupancy, Seconds flightLatency,
                         const AcquireFn &acquire);

    const ReliableTransportConfig &config() const { return config_; }

    /** Cumulative counters across every send() on this transport. */
    std::int64_t totalRetries() const { return totalRetries_; }
    std::int64_t totalTimeouts() const { return totalTimeouts_; }
    std::int64_t totalLinkDownWaits() const { return totalLinkDownWaits_; }
    std::int64_t totalUndelivered() const { return totalUndelivered_; }

  private:
    ReliableTransportConfig config_;
    const FaultInjector *injector_;
    Status status_;
    std::int64_t totalRetries_ = 0;
    std::int64_t totalTimeouts_ = 0;
    std::int64_t totalLinkDownWaits_ = 0;
    std::int64_t totalUndelivered_ = 0;
};

} // namespace tapacs

#endif // TAPACS_NETWORK_PROTOCOLS_HH
