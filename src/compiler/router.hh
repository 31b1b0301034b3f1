/**
 * @file
 * Qubit-level routing of a native circuit over a mapped mixed-radix
 * device (paper section 4.2), plus an independent replay validator.
 */

#ifndef QOMPRESS_COMPILER_ROUTER_HH
#define QOMPRESS_COMPILER_ROUTER_HH

#include "compiler/compiled_circuit.hh"
#include "compiler/cost_model.hh"
#include "ir/circuit.hh"

namespace qompress {

/** Router tuning knobs. */
struct RouterOptions
{
    /**
     * Weight of the lookahead term: when > 0, candidate SWAP plans
     * are additionally scored by the moved qubit's distance to its
     * *next* interaction partner (the classic lookahead heuristic the
     * paper cites as directly translatable to ququart routing). 0
     * disables lookahead.
     */
    double lookaheadWeight = 0.0;

    /**
     * Reuse Dijkstra distance fields across routing rounds via
     * DistanceFieldCache (routing SWAPs never perturb edge costs, so
     * fields stay valid for the whole pass). Off recomputes every
     * field by direct Dijkstra: the reference that HotpathRouter.*
     * and bench_hotpaths' route_bv20 section compare the cached
     * router against. Compiles always leave it on.
     */
    bool useDistanceCache = true;
};

/**
 * Route @p native (1q/CX/SWAP gates only) starting from @p layout,
 * appending physical gates to @p out and advancing the layout to the
 * final placement.
 *
 * Gates are processed in ASAP-layer order; within a layer, two-operand
 * gates run longest-remaining-path first (the paper's serialization
 * tie-break) and pairs of 1-qubit gates landing on one encoded ququart
 * fuse into a single-ququart gate. Non-adjacent operands are brought
 * together with SWAP chains along minimum Eq.-4-cost paths over
 * *occupied* slots only (no encodings are created), with paths through
 * foreign ququarts penalized.
 *
 * @param cache optional shared distance-field cache (normally the
 *        CompileContext one, already warm from mapping); a pass-local
 *        one when null. Unused when the options turn caching off and
 *        every field is recomputed directly. Routed output never
 *        depends on which of these serves it (HotpathRouter.*,
 *        HotpathCache.SeededMutationsMatchFreshFields).
 */
void routeCircuit(const Circuit &native, Layout &layout,
                  const CostModel &cost, CompiledCircuit &out,
                  const RouterOptions &opts = {},
                  DistanceFieldCache *cache = nullptr);

/**
 * Replay a compiled circuit from its initial layout, checking every
 * structural invariant: operand adjacency, classification consistency
 * against the replayed encoding state, occupancy rules for ENC/DEC,
 * and agreement with the recorded final layout.
 *
 * @throws PanicError on the first violation.
 */
void validateCompiled(const CompiledCircuit &compiled,
                      const Topology &topo);

/** The layout reached by replaying all gates from the initial layout. */
Layout replayFinalLayout(const CompiledCircuit &compiled);

/**
 * Advance @p layout across one physical gate (the single-step kernel
 * of replayFinalLayout). Used by replay-heavy loops -- equivalence
 * checking, validation -- to avoid building a one-gate CompiledCircuit
 * per step.
 */
void advanceLayout(Layout &layout, const PhysGate &g);

} // namespace qompress

#endif // QOMPRESS_COMPILER_ROUTER_HH
