/**
 * @file
 * Initial placement of logical qubits onto expanded-graph slots
 * (paper section 4.2), honouring compression pairs chosen by a
 * strategy (section 5).
 */

#ifndef QOMPRESS_COMPILER_MAPPER_HH
#define QOMPRESS_COMPILER_MAPPER_HH

#include <vector>

#include "compiler/cost_model.hh"
#include "compiler/layout.hh"
#include "ir/interaction.hh"

namespace qompress {

/**
 * One compression decision: encode @p first at position 0 and
 * @p second at position 1 of the same physical unit.
 */
struct Compression
{
    QubitId first;
    QubitId second;

    bool operator==(const Compression &o) const
    {
        return first == o.first && second == o.second;
    }
};

/** Placement policy knobs. */
struct MapperOptions
{
    /**
     * Allow the mapper to use position-1 slots for qubits outside any
     * committed pair (the EQM strategy). When false, compressions
     * happen only through explicit pairs.
     */
    bool allowDynamicSlot1 = false;

    /** Committed ordered pairs; must be disjoint. */
    std::vector<Compression> pairs;
};

/**
 * Greedy weighted placement.
 *
 * Seeds the highest-total-weight qubit at the device's center unit and
 * then repeatedly places the unmapped qubit with the strongest ties to
 * the already-placed set at the slot minimizing the weighted sum of
 * mapping distances (paper's scoring). Position-1 slots open up only
 * after position 0 of the same unit is taken; the second element of a
 * committed pair is forced into its partner's unit.
 *
 * @param cache optional shared distance-field cache (a call-local one
 *        when null). Mapping edge costs depend only on encoded bits,
 *        so the placement loop's fields stay valid across every
 *        placement that does not complete a pair -- with partial
 *        invalidation the cache pays off here even though the layout
 *        mutates between queries. Placement never depends on which
 *        cache serves it (HotpathCache.SeededMutationsMatchFreshFields
 *        and ContextReuse.LongLivedContextMatchesFreshContexts).
 * @throws FatalError when the device cannot hold the circuit.
 */
Layout mapCircuit(const Circuit &circuit, const InteractionModel &im,
                  const CostModel &cost, const MapperOptions &opts,
                  DistanceFieldCache *cache = nullptr);

/** Partner lookup table from a pair list (kInvalid when unpaired). */
std::vector<QubitId> partnerTable(int num_qubits,
                                  const std::vector<Compression> &pairs);

} // namespace qompress

#endif // QOMPRESS_COMPILER_MAPPER_HH
