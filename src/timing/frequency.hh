/**
 * @file
 * Post-placement frequency estimation.
 *
 * The paper attributes its 11-116 % frequency gains to exactly two
 * mechanisms: (1) long, under-pipelined slot/die crossings set the
 * critical path when HLS lacks a global view of placement, and
 * (2) congestion — slots packed beyond a utilization knee suffer
 * routing detours that dilate every delay. This model prices both:
 * an edge's delay is its local logic delay plus its crossing wire
 * delay divided across its pipeline stages, all scaled by the
 * congestion of the slots it touches; a module's intrinsic fmax
 * ceiling is likewise derated by congestion. The device frequency is
 * the minimum over all edges and modules, clamped to the board's
 * maximum (300 MHz for the U55C). Routing *fails* outright when a
 * slot exceeds the routable-utilization cliff — this reproduces the
 * paper's "cannot route 13x12 on one device" behaviour.
 */

#ifndef TAPACS_TIMING_FREQUENCY_HH
#define TAPACS_TIMING_FREQUENCY_HH

#include <string>
#include <vector>

#include "floorplan/hbm_binding.hh"
#include "floorplan/partition.hh"
#include "pipeline/pipelining.hh"

namespace tapacs
{

/** @name Calibration constants of the delay model */
///@{
/** Local logic + short-route delay of a pipelined segment (ns). */
inline constexpr double kLocalDelayNs = 1.5;
/** Wire delay per same-die slot crossing (ns). */
inline constexpr double kSlotCrossNs = 1.2;
/** Wire delay per die-boundary (SLR) crossing (ns). */
inline constexpr double kDieCrossNs = 2.1;
/** Slot utilization where congestion starts dilating delays. */
inline constexpr double kCongestionKnee = 0.60;
/** Delay dilation slope past the knee. */
inline constexpr double kCongestionGamma = 1.6;
/** Slot utilization beyond which routing fails. */
inline constexpr double kRoutableUtil = 0.92;
/**
 * HBM crossbar pressure: the fraction of the device's memory channels
 * in use is added (scaled by this factor) to the *effective*
 * utilization of the memory-row slots when computing congestion. This
 * models the paper's section-4.5 observation that heavy HBM channel
 * usage congests the bottom die and drags frequency even when logic
 * utilization is low.
 */
inline constexpr double kHbmPressure = 0.32;
///@}

/** Timing outcome for one device. */
struct DeviceTiming
{
    bool routable = true;
    Hertz fmax = 0.0;
    /** Worst slot utilization on the device. */
    double maxSlotUtil = 0.0;
    /** Human-readable description of the critical path. */
    std::string critical;
};

/** Timing outcome for the whole design. */
struct TimingResult
{
    std::vector<DeviceTiming> perDevice;
    /** Design clock = slowest device clock (0 if any unroutable). */
    Hertz designFmax = 0.0;
    bool allRoutable = true;
};

/**
 * Estimate the achievable clock for each device of a placed design.
 *
 * @param g the task graph.
 * @param cluster the cluster (device layout, count).
 * @param partition level-1 assignment.
 * @param placement level-2 slot placement.
 * @param plan interconnect pipelining decisions.
 * @param fmaxCeiling per-vertex intrinsic fmax from synthesis
 *        (empty = 340 MHz for all).
 * @param reserved per-device resources consumed outside the graph
 *        (e.g. networking IPs), spread across slots for congestion.
 * @param binding optional HBM channel binding; enables the memory-row
 *        pressure term (nullptr disables it).
 */
TimingResult estimateTiming(const TaskGraph &g, const Cluster &cluster,
                            const DevicePartition &partition,
                            const SlotPlacement &placement,
                            const PipelinePlan &plan,
                            const std::vector<Hertz> &fmaxCeiling = {},
                            const ResourceVector &reserved = {},
                            const HbmBinding *binding = nullptr);

} // namespace tapacs

#endif // TAPACS_TIMING_FREQUENCY_HH
