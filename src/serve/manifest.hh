/**
 * @file
 * Hardened manifest parsing for the batch compile service.
 *
 * The manifest is untrusted input: a serving process reads whatever a
 * tenant submitted, so the parser must survive any byte sequence —
 * truncated lines, non-numeric values, overflowing numbers, unknown
 * keys — and turn each malformed line into a diagnostic instead of a
 * crash or a process kill. Well-formed lines around a bad one still
 * parse; the caller decides whether diagnostics are fatal.
 *
 * Format (one request per line, '#' starts a comment):
 *
 *   request NAME workload=stencil|pagerank|knn|cnn [key=value...]
 *   request NAME graph=FILE [key=value...]
 *
 * keys: fpgas=N        devices to target (1..256, default 2)
 *       mode=vitis|tapa|tapacs
 *       topology=chain|ring|star|mesh|hypercube|full
 *       threshold=X    eq. 1 threshold in (0, 1] (default 0.70)
 *       scale=N        workload size knob (0 = harness default):
 *                      stencil iterations, pagerank synthetic node
 *                      count, knn points, cnn batch size
 *       repeat=N       enqueue N copies (1..10000)
 *       deadline_ms=N  per-request deadline; 0 = already expired
 *                      (forces the deterministic degraded path),
 *                      negative = inherit the service default
 *       simulate=0|1   also simulate the compiled design and report
 *                      its makespan (default 0); the sim honors the
 *                      request deadline
 *       solver=exact|multilevel
 *                      level-1 floorplanning engine (default exact;
 *                      multilevel is the V-cycle hypergraph
 *                      partitioner for cluster-scale graphs)
 *       replicate=0|1  plan logic replication in the level-1 solve
 *                      (default 0; meaningful with fpgas >= 2)
 *       coarse_limit=N coarsening target for the level-1 solve
 *                      (2..100000; 0 = engine default)
 *       incremental=0|1
 *                      recompile incrementally against a retained
 *                      prior result (default 0); requires base=
 *       base=NAME      name of an earlier request in this session
 *                      whose retained result seeds the incremental
 *                      recompile; a base that is not retained (never
 *                      ran, failed, or evicted) degrades to a typed
 *                      cold compile. Requires incremental=1.
 *       explore=0|1    run a design-space sweep instead of a single
 *                      compile (default 0); the grid axes below
 *                      require it, and it is incompatible with
 *                      simulate= (the sweep simulates internally)
 *                      and incremental=
 *       t=CSV          explore axis: eq. 1 thresholds in (0, 1]
 *                      (default: the request's threshold=)
 *       lambda=CSV     explore axis: slot-level λ values in (0, 1]
 *                      or `follow` (default follow = track T)
 *       topo=CSV       explore axis: chain|ring|star|mesh|hypercube|
 *                      full (default: the request's topology=)
 *       binding=CSV    explore axis: nearest|sweep HBM binding
 *                      policies (default sweep)
 *       depth=CSV      explore axis: pipelining stages per crossing,
 *                      integers in [0, 16] (default 2)
 *
 * incremental=/base= are session-scoped serving knobs: they select
 * *where* reusable artifacts come from, never what is computed, so
 * they are excluded from compile-cache keys (see cache/compile_cache).
 */

#ifndef TAPACS_SERVE_MANIFEST_HH
#define TAPACS_SERVE_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "compiler/compiler.hh"
#include "explore/spec.hh"
#include "network/topology.hh"

namespace tapacs::serve
{

/** One compile request, as admitted from a manifest line. */
struct Request
{
    std::string name;
    /** Builtin app name, or empty when graphFile is set. */
    std::string workload;
    std::string graphFile;
    int fpgas = 2;
    CompileMode mode = CompileMode::TapaCs;
    TopologyKind topology = TopologyKind::Ring;
    double threshold = 0.70;
    std::int64_t scale = 0;
    int repeat = 1;
    /** Milliseconds; < 0 = inherit the service default, 0 = already
     *  expired (deterministic degraded path), > 0 = that budget. */
    double deadlineMs = -1.0;
    /** Also simulate the compiled design (simulate=1). */
    bool simulate = false;
    /** Level-1 floorplanning engine (solver=exact|multilevel). */
    L1Backend solver = L1Backend::Exact;
    /** Plan logic replication in the level-1 solve (replicate=1). */
    bool replicate = false;
    /** Level-1 coarsening target (coarse_limit=; 0 = engine
     *  default). */
    int coarseLimit = 0;
    /** Recompile incrementally against the retained result named by
     *  `base` (incremental=1). */
    bool incremental = false;
    /** Name of the earlier request whose retained result seeds this
     *  one (base=; required with incremental=1). */
    std::string base;
    /** Run a design-space sweep instead of one compile (explore=1). */
    bool explore = false;
    /** The sweep grid (t=/lambda=/topo=/binding=/depth= axes; axes
     *  not given default to the request's own threshold/topology and
     *  the compiler defaults). Only meaningful with explore=1. */
    explore::ExploreSpec grid;
};

/** One rejected manifest line. */
struct ManifestDiagnostic
{
    int line = 0;
    std::string message;
};

/** Everything one parse produced. */
struct ParsedManifest
{
    std::vector<Request> requests;
    std::vector<ManifestDiagnostic> diagnostics;

    bool clean() const { return diagnostics.empty(); }
};

/**
 * Parse manifest text. Total: every line either contributes a
 * Request or a ManifestDiagnostic; no input crashes, loops, or calls
 * fatal(). Validation is strict — numbers must parse completely and
 * sit inside the documented ranges, exactly one of workload=/graph=
 * must be present, workload names must be known — so a Request that
 * comes back is always safe to hand to the compile flow.
 */
ParsedManifest parseManifest(const std::string &text);

/** Lookup helpers shared with the CLI; Ok + *out on success,
 *  InvalidInput naming the bad value otherwise. Topology names parse
 *  with explore::parseTopologyName. */
Status parseModeName(const std::string &name, CompileMode *out);
Status parseSolverName(const std::string &name, L1Backend *out);

/**
 * Render @p req back to one canonical manifest line (no trailing
 * newline) that parseManifest() accepts and that round-trips every
 * field except `repeat` — a rendered line always means "run once",
 * because the renderer's callers (the fleet wire, the request
 * journal) deal in already-expanded requests. Doubles render in
 * %.17g, which strtod round-trips exactly, so a re-parsed Request
 * compiles bit-identically. Precondition: @p req came from
 * parseManifest() or otherwise satisfies its cross-rules (exactly
 * one of workload/graphFile set, base only with incremental, ...).
 */
std::string renderRequestLine(const Request &req);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_MANIFEST_HH
