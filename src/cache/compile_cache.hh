/**
 * @file
 * Typed memoization facade for the compile flow.
 *
 * Three artifact classes are cached, matching the solver-heavy phases
 * of the seven-step flow (paper section 4.2):
 *
 *   phase 2  per-task HLS estimates        hlsTaskKey(TaskIr)
 *   phase 3  level-1 inter-FPGA solutions  interKey(graph, cluster, opts)
 *   phase 5  per-DEVICE intra-FPGA place-  intraDeviceKey(graph, part,
 *            ments + HBM bindings                   device, model, opts)
 *
 * Keys fold in every cost-relevant input — the graph content the
 * solver reads, cluster content, thresholds, seeds, solver limits —
 * and a schema version, but deliberately EXCLUDE the thread-count
 * knobs: results are thread-count-invariant by construction (see
 * floorplanLevel2), so a 4-thread batch compile and a serial one
 * address the same entries. Session-scoped serving knobs
 * (result retention, `--incremental`) are likewise not content and
 * never reach a key, so incremental and cold compiles share entries.
 * An exact-key hit returns the stored artifact bit-for-bit; doubles
 * are serialized as hex floats (%a), so the round trip is lossless.
 *
 * Both floorplan tiers key the graph positionally: vertices in
 * ascending id, edges in id order. Each solver is index-order-
 * sensitive — coarsening tie-breaks, the greedy seed, the FM walk
 * and the per-device bisections all visit vertices by id — so equal
 * keys must mean the solver would walk the exact same path, which is
 * the bit-identity contract of cached and incremental compiles. A
 * relabeled copy of a design is therefore a different key (and a
 * cold solve), never a transported answer. Per-vertex artifacts
 * (device assignments, replication lists, slot placements) are
 * stored in the same id order.
 *
 * The level-1 tier keys the whole graph. The level-2 tier is per
 * device: each device's bisection + HBM binding reads only that
 * device's vertices (cross-device edges are the level-1 objective),
 * so the entry keys the ordered induced subgraph of one device plus
 * the device model. When an edit dirties one task, every other
 * device's level-2 solution still hits.
 */

#ifndef TAPACS_CACHE_COMPILE_CACHE_HH
#define TAPACS_CACHE_COMPILE_CACHE_HH

#include "cache/key.hh"
#include "cache/store.hh"
#include "floorplan/inter_fpga.hh"
#include "floorplan/intra_fpga.hh"
#include "hls/estimator.hh"

namespace tapacs::cache
{

/** Bumped whenever an entry format, key derivation or solver result
 *  changes, so stale on-disk tiers miss instead of misparsing or
 *  serving partitions the current code would not produce. */
constexpr int kSchemaVersion = 5;

/** Content key of one pre-synthesis task (includes the task name:
 *  synthesis results are joined back onto vertices by name). */
CacheKey hlsTaskKey(const hls::TaskIr &task);

/**
 * Exact key of a level-1 inter-FPGA solve: @p g in id order with the
 * attributes the level-1 solve, replication and the stored cut read
 * (per vertex area, memory channels, memory read and write bytes; per
 * edge endpoints, width and total bytes), the cluster content and the
 * solver-visible options. Attributes only pipelining, timing and
 * simulation read (compute ops, FIFO depths, initial tokens, ...)
 * stay out, so a timing-only edit reuses the whole floorplan. Thread
 * counts and the deadline are excluded too.
 */
CacheKey interKey(const TaskGraph &g, const Cluster &cluster,
                  int numFpgas, const InterFpgaOptions &options);

/**
 * Exact key of one device's level-2 solve (+ HBM binding): the
 * ordered induced subgraph of @p device under @p partition (vertex
 * areas + memory-channel demands in ascending graph id, plus the
 * intra-device edges' widths in edge-id order), the device model
 * alone (topology and cluster size are level-1 concerns), the
 * solver-visible options and the HBM binding @p sweep flag. The
 * thread count is excluded (results invariant). The entry stored
 * under it is floorplanLevel2's IntraDeviceEntry.
 */
CacheKey intraDeviceKey(const TaskGraph &g,
                        const DevicePartition &partition, DeviceId device,
                        const DeviceModel &dev,
                        const IntraFpgaOptions &options, bool sweep);

/**
 * Typed get/put over a CacheStore. Thread-safe (the store is); a
 * racing get/put of the same key is benign because entries are
 * content-addressed — both writers carry identical bytes.
 */
class CompileCache
{
  public:
    explicit CompileCache(CacheStore &store) : store_(store) {}

    /** Facade over CacheStore::global() (TAPACS_CACHE_DIR et al.). */
    static CompileCache &global();

    bool getHls(const CacheKey &key, hls::SynthesisResult *out);
    void putHls(const CacheKey &key, const hls::SynthesisResult &result);

    /** Level-1 entry of a @p numVertices-vertex graph; false on a
     *  miss or an entry of any other size. */
    bool getInter(const CacheKey &key, int numVertices,
                  InterFpgaResult *out);
    void putInter(const CacheKey &key, const InterFpgaResult &result);

    bool getIntraDevice(const CacheKey &key, IntraDeviceEntry *out);
    void putIntraDevice(const CacheKey &key,
                        const IntraDeviceEntry &entry);

    CacheStore &store() { return store_; }

  private:
    CacheStore &store_;
};

} // namespace tapacs::cache

#endif // TAPACS_CACHE_COMPILE_CACHE_HH
