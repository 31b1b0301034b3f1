/**
 * @file
 * The end-to-end Qompress pipeline: decompose, map (with a set of
 * compressions), route, schedule, evaluate.
 */

#ifndef QOMPRESS_COMPILER_PIPELINE_HH
#define QOMPRESS_COMPILER_PIPELINE_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "arch/topology.hh"
#include "compiler/mapper.hh"
#include "compiler/metrics.hh"
#include "compiler/router.hh"
#include "compiler/scheduler.hh"

namespace qompress {

/** Pipeline-wide knobs. */
struct CompilerConfig
{
    /** Charge one ENC gate per compressed pair at t = 0. */
    bool chargeInitialEnc = true;

    /** Multiplier discouraging SWAP paths that displace qubits of
     *  foreign ququarts (paper's second routing constraint). */
    double throughQuquartPenalty = 1.25;

    /** Router lookahead weight (0 = off); see RouterOptions. */
    double lookaheadWeight = 0.0;

    /** Run the structural validator on every compile (cheap; the
     *  exhaustive strategy turns it off in its inner loop). */
    bool validate = true;

    /**
     * Device calibration pricing the compile (see arch/device.hh):
     * per-unit T1/readout replace the GateLibrary constants and
     * per-edge scales adjust cross-unit gates. Null (the default)
     * compiles the uncalibrated device, bit-identical to a config
     * without the field. Shared immutable so configs stay cheap to
     * copy; the unit count must match the topology compiled against.
     */
    std::shared_ptr<const DeviceCalibration> calibration;

    /**
     * Lanes for compile-level fan-out — the exhaustive strategy's
     * parallel pair sweep and the portfolio strategy's parallel
     * member compiles (eval sweeps inherit it via SweepSpec::threads):
     * 0 = ThreadPool::defaultThreadCount() (the QOMPRESS_THREADS env
     * override, else hardware_concurrency); 1 = force serial;
     * N > 1 = exactly N lanes. Results (pairings, winners, records)
     * are bit-identical across all settings; only wall-clock changes.
     */
    int threads = 0;
};

/** Everything a compile produces. */
struct CompileResult
{
    CompiledCircuit compiled;
    Metrics metrics;
    /** Pairs actually encoded (explicit or arising from EQM mapping). */
    std::vector<Compression> compressions;
};

/**
 * Shared pricing state for one compile: the expanded graph, the cost
 * model over it, and one mutation-aware distance-field cache that
 * mapping, routing, and the compression strategies all draw from.
 *
 * Before this existed every strategy re-derived its own graph/cost
 * pair and re-ran Dijkstra ad hoc; sharing one context lets fields
 * computed while choosing pairs survive into mapping and routing
 * (partial invalidation keeps them sound across layout mutations and
 * even across distinct Layout instances).
 *
 * Non-copyable: the cost model and cache hold references into the
 * context's own expanded graph.
 *
 * Thread-safety: a CompileContext is single-writer state — the cache
 * mutates on every lookup — so it must never be shared across
 * concurrently running compiles. Parallel callers (the exhaustive
 * strategy's fan-out) build one context per lane; contexts over the
 * same topo/lib/cfg are interchangeable result-wise because caching
 * never changes what a compile emits, only how fast it prices paths
 * (enforced by HotpathCache.SeededMutationsMatchFreshFields and
 * ContextReuse.LongLivedContextMatchesFreshContexts).
 */
class CompileContext
{
  public:
    CompileContext(const Topology &topo, const GateLibrary &lib,
                   const CompilerConfig &cfg);

    CompileContext(const CompileContext &) = delete;
    CompileContext &operator=(const CompileContext &) = delete;

    const ExpandedGraph &expanded() const { return xg_; }
    const CostModel &cost() const { return cost_; }

    /** The shared cache (never null). */
    DistanceFieldCache *cache() { return &cache_; }

    /** Read-only counter access (for benches/tests). */
    const DistanceFieldCache &cacheStats() const { return cache_; }

  private:
    ExpandedGraph xg_;
    /** Owned so pricing never dangles if the caller's cfg dies first;
     *  declared before cost_, which captures the raw pointer. */
    std::shared_ptr<const DeviceCalibration> cal_;
    CostModel cost_;
    DistanceFieldCache cache_;
};

/**
 * Compile @p circuit onto @p topo with the given committed pairs.
 *
 * @param allow_dynamic_slot1 let the mapper form additional pairs on
 *        its own (the EQM behaviour).
 * @param ctx optional shared context (must have been built over the
 *        same topo/lib/cfg pricing). The exhaustive
 *        strategy passes one across its hundreds of candidate compiles
 *        so distance fields are reused between them. When null a
 *        compile-local context is used.
 *
 * Reentrant: safe to call from multiple threads at once provided each
 * call gets its own @p ctx (or null); all other inputs are read-only.
 */
CompileResult compileWithPairs(const Circuit &circuit,
                               const Topology &topo,
                               const GateLibrary &lib,
                               const std::vector<Compression> &pairs,
                               bool allow_dynamic_slot1,
                               const CompilerConfig &cfg = {},
                               CompileContext *ctx = nullptr);

/** Open a compile on its initial @p layout: the encoded pairs, an
 *  empty circuit named @p name and, under cfg.chargeInitialEnc, one
 *  ENC per encoded unit at t = 0. compileWithPairs and FQ share it. */
CompileResult beginCompile(const Layout &layout, const std::string &name,
                           const CompilerConfig &cfg);

/** Close a routed compile: schedule, validate (cfg.validate) and
 *  price it, all under cfg.calibration. Shared like beginCompile. */
void finishCompile(CompileResult &result, const Topology &topo,
                   const GateLibrary &lib, const CompilerConfig &cfg);

/** The pairs sharing a unit in @p layout (first = position 0). */
std::vector<Compression> encodedPairsOf(const Layout &layout);

} // namespace qompress

#endif // QOMPRESS_COMPILER_PIPELINE_HH
