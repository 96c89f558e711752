/**
 * @file
 * Serially-shared resource model for the dataflow simulator.
 *
 * HBM channels, task datapaths and network ports are all resources
 * that serve one request at a time; contention shows up as queueing
 * delay. A Server tracks when the resource next frees up and logs
 * busy time so benches can report utilization (e.g. idle-PE time in
 * the CNN contention discussion, paper section 5.5).
 */

#ifndef TAPACS_SIM_SERVER_HH
#define TAPACS_SIM_SERVER_HH

#include "common/units.hh"

namespace tapacs::sim
{

/** A FIFO-serving, single-occupancy resource. */
class Server
{
  public:
    /**
     * Reserve the resource for @p duration starting no earlier than
     * @p earliest.
     *
     * @return the completion time of this request.
     */
    Seconds acquire(Seconds earliest, Seconds duration);

    /** Total time the resource has spent serving requests. */
    Seconds busyTime() const { return busyTime_; }

  private:
    Seconds busyUntil_ = 0.0;
    Seconds busyTime_ = 0.0;
};

} // namespace tapacs::sim

#endif // TAPACS_SIM_SERVER_HH
