/**
 * @file
 * The compression-strategy interface (paper section 5) and a registry
 * of the standard strategies used throughout the evaluation.
 */

#ifndef QOMPRESS_STRATEGIES_STRATEGY_HH
#define QOMPRESS_STRATEGIES_STRATEGY_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/pipeline.hh"

namespace qompress {

/**
 * A qubit-compression policy.
 *
 * Most strategies pick pairs up front (choosePairs) and defer to the
 * common pipeline; FQ overrides compile() because it routes at the
 * qudit level with encode/decode around external operations (it still
 * opens and closes through beginCompile/finishCompile).
 *
 * Thread-safety: the standard strategies are stateless, so one
 * instance may serve concurrent compiles as long as each call uses
 * its own CompileContext (the portfolio strategy, which records its
 * last winner, is the exception). The exhaustive strategy
 * additionally parallelizes internally; see CompilerConfig::threads.
 */
class CompressionStrategy
{
  public:
    virtual ~CompressionStrategy() = default;

    /** Stable identifier ("eqm", "rb", ...). */
    virtual std::string name() const = 0;

    /**
     * Select compression pairs for a *native* circuit.
     *
     * Deterministic: the same inputs always yield the same pairs,
     * whatever the caching or threading configuration.
     *
     * @param ctx the compile-wide pricing context; strategies that
     *        price candidates against the device (pp, ec) draw
     *        distance fields from ctx.cache() instead of re-running
     *        Dijkstra ad hoc, and fields they warm survive into the
     *        subsequent mapping/routing of the same compile. The
     *        context is single-writer: it must not be shared with a
     *        concurrently running compile.
     */
    virtual std::vector<Compression>
    choosePairs(const Circuit &native, const Topology &topo,
                const GateLibrary &lib, const CompilerConfig &cfg,
                CompileContext &ctx) const;

    /** Convenience overload building a throwaway context. */
    std::vector<Compression>
    choosePairs(const Circuit &native, const Topology &topo,
                const GateLibrary &lib, const CompilerConfig &cfg) const;

    /** Whether the mapper may invent extra pairs (EQM). */
    virtual bool allowDynamicSlot1() const { return false; }

    /**
     * Full compilation; the default decomposes, picks pairs, and runs
     * the shared pipeline -- all against one CompileContext. Safe to
     * call concurrently on one strategy instance (each call builds
     * its own context).
     *
     * @param ctx optional caller-owned context built over the same
     *        topo/lib/cfg pricing; parallel sweeps (eval/sweep.cc)
     *        pass one per lane so the expanded graph, cost model, and
     *        warmed distance fields are reused across the lane's
     *        cells instead of being re-derived per compile. Single
     *        writer: never share one across concurrent compiles. The
     *        cache invariant (caching never changes what a compile
     *        emits) keeps results independent of whether and how a
     *        context is reused. When null, a compile-local context is
     *        built.
     */
    virtual CompileResult compile(const Circuit &circuit,
                                  const Topology &topo,
                                  const GateLibrary &lib,
                                  const CompilerConfig &cfg,
                                  CompileContext *ctx) const;

    /** Convenience overload: compile with a compile-local context. */
    CompileResult compile(const Circuit &circuit, const Topology &topo,
                          const GateLibrary &lib,
                          const CompilerConfig &cfg = {}) const
    {
        return compile(circuit, topo, lib, cfg, nullptr);
    }
};

/** Never compresses; the paper's qubit-only baseline. */
class QubitOnlyStrategy : public CompressionStrategy
{
  public:
    std::string name() const override { return "qubit_only"; }
};

/** Extended Qubit Mapping: compression emerges from greedy mapping
 *  over the expanded graph (paper section 5.2). */
class EqmStrategy : public CompressionStrategy
{
  public:
    std::string name() const override { return "eqm"; }
    bool allowDynamicSlot1() const override { return true; }
};

/**
 * The standard strategy set evaluated in the paper's figures:
 * qubit_only, fq, eqm, rb, awe, pp.
 */
std::vector<std::unique_ptr<CompressionStrategy>> standardStrategies();

/**
 * Every name makeStrategy accepts, in registry order (the standard
 * set plus "ec", "ec_unordered", and "portfolio"). The round-trip
 * makeStrategy(n)->name() == n holds for every listed name.
 */
const std::vector<std::string> &strategyNames();

/**
 * Build one strategy by name (any strategyNames() entry).
 *
 * @throws FatalError on an unknown name; the message lists every
 *         valid name so callers (CLI, service requests) can surface
 *         an actionable error.
 */
std::unique_ptr<CompressionStrategy>
makeStrategy(const std::string &name);

} // namespace qompress

#endif // QOMPRESS_STRATEGIES_STRATEGY_HH
