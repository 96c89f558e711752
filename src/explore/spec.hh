/**
 * @file
 * Typed design-space-exploration specs.
 *
 * A sweep is described as a grid over the five knobs the paper fixes
 * per experiment (sections 4-5): the device-level utilization
 * threshold T of eq. 1, the slot-level threshold λ of eq. 4, the
 * intra-node topology, the HBM channel-binding policy, and the
 * interconnect pipelining depth. Axes the caller leaves out keep the
 * compiler defaults, so a one-axis sweep is a one-line spec.
 *
 * The textual grammar — shared by the `tapacs-explore --grid` flag
 * and the serve manifest's explore keys — is
 *
 *   t=0.6,0.7;lambda=0.7;topo=ring,mesh;binding=nearest,sweep;depth=1,2
 *
 * Axes are ';'-separated, values ','-separated, every value strictly
 * validated (range-checked numbers, known names, no duplicates).
 * Parsing is total: any malformed spec comes back as a typed
 * InvalidInput naming the offending token, never a crash.
 *
 * Point enumeration is canonical: nested loops with t outermost, then
 * lambda, topo, binding, and depth innermost. Every consumer (the
 * parallel driver, the Pareto reduction, the trace emit) indexes that
 * order, which is what makes frontiers comparable across thread
 * counts and evaluation orders.
 */

#ifndef TAPACS_EXPLORE_SPEC_HH
#define TAPACS_EXPLORE_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hh"
#include "network/topology.hh"

namespace tapacs::explore
{

/** One grid point: a full knob assignment. */
struct ExplorePoint
{
    /** Device-level threshold T (eq. 1). */
    double threshold = 0.70;
    /** Slot-level threshold λ (eq. 4); negative = follow T. */
    double slotThreshold = -1.0;
    TopologyKind topology = TopologyKind::Ring;
    /** true = HBM candidate sweep, false = nearest-free walk. */
    bool bindingSweep = true;
    /** Interconnect pipelining stages per slot crossing. */
    int depth = 2;

    /** Compact display label, e.g.
     *  "t=0.70 l=follow topo=ring bind=sweep depth=2". */
    std::string label() const;
};

/** A validated sweep grid. Default-constructed axes hold exactly the
 *  compiler defaults, so an empty spec is the 1-point sweep. */
struct ExploreSpec
{
    std::vector<double> thresholds{0.70};
    /** λ values; -1 = follow T. */
    std::vector<double> slotThresholds{-1.0};
    std::vector<TopologyKind> topologies{TopologyKind::Ring};
    /** Binding policies (false = nearest, true = sweep). */
    std::vector<bool> bindingSweeps{true};
    std::vector<int> depths{2};

    /** Grid size: the product of the axis lengths. */
    std::size_t numPoints() const;

    /** The idx-th point of the canonical enumeration (t outermost,
     *  depth innermost). idx must be < numPoints(). */
    ExplorePoint point(std::size_t idx) const;

    /** Ok when every axis is non-empty, every value is in range, no
     *  axis holds duplicates, and the grid is within kMaxPoints. */
    Status validate() const;
};

/** Hard cap on grid size: a typo must not enqueue a million
 *  compiles. */
constexpr std::size_t kMaxExplorePoints = 4096;

/** Strict numeric parses shared by the grid grammar, the serve
 *  manifest and the tools' flags: the whole of @p text must be a
 *  number inside [lo, hi]; anything else (empty, trailing junk,
 *  overflow, NaN) fails and leaves *out untouched. */
bool parseInt(const std::string &text, std::int64_t lo, std::int64_t hi,
              std::int64_t *out);
bool parseDouble(const std::string &text, double lo, double hi,
                 double *out);

/**
 * Parse one axis's value list ("0.6,0.7" etc.) into the field of
 * @p spec that @p key names (t | lambda | topo | binding | depth),
 * replacing it: the key -> axis dispatch shared by the grid grammar
 * and the serve manifest's axis keys. nullopt when @p key names no
 * axis; otherwise Ok, or InvalidInput naming the bad token with
 * @p spec untouched. λ takes the literal `follow` (-1, follow T),
 * binding takes `nearest` | `sweep`, depth integers in [0, 16].
 */
std::optional<Status> parseGridAxis(const std::string &key,
                                    const std::string &csv,
                                    ExploreSpec *spec);

/**
 * Parse a full grid spec ("t=...;lambda=...;..."). Axes not named
 * keep their defaults; empty text is the default 1-point grid. The
 * returned spec is already validate()d.
 */
Status parseGridSpec(const std::string &text, ExploreSpec *out);

/** Topology display name as the grid grammar spells it ("ring",
 *  "mesh", ...). */
const char *gridTopologyName(TopologyKind kind);

/** Inverse of gridTopologyName, shared by the grid grammar, the serve
 *  manifest's topology= key and the tools' --topology flags. Ok +
 *  *out on success, InvalidInput naming the bad value otherwise. */
Status parseTopologyName(const std::string &name, TopologyKind *out);

} // namespace tapacs::explore

#endif // TAPACS_EXPLORE_SPEC_HH
