/**
 * @file
 * The logical-qubit-to-slot assignment tracked through mapping and
 * routing.
 */

#ifndef QOMPRESS_COMPILER_LAYOUT_HH
#define QOMPRESS_COMPILER_LAYOUT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace qompress {

/**
 * Bidirectional map between logical qubits and expanded-graph slots.
 *
 * A unit is *encoded* (ququart) iff both of its slots are occupied.
 * Routing only ever swaps occupants, so occupancy -- and therefore the
 * encoded state of every unit -- is invariant during routing; ENC/DEC
 * (used by the FQ baseline) are the only operations that change it.
 */
class Layout
{
  public:
    Layout();

    /** Empty layout over @p num_qubits logical and @p num_units units. */
    Layout(int num_qubits, int num_units);

    /**
     * Copies get a fresh instance id: DistanceFieldCache stamps cached
     * fields with (id, costVersion), and two diverging copies share a
     * version trajectory, so an inherited id would let one copy serve
     * stale fields computed against the other.
     */
    Layout(const Layout &other);
    Layout &operator=(const Layout &other);
    Layout(Layout &&) = default;
    Layout &operator=(Layout &&) = default;

    int numQubits() const { return static_cast<int>(qubitToSlot_.size()); }
    int numUnits() const
    {
        return static_cast<int>(slotToQubit_.size()) / 2;
    }
    int numSlots() const { return static_cast<int>(slotToQubit_.size()); }

    /** Slot of logical qubit @p q; kInvalid if unmapped. */
    SlotId slotOf(QubitId q) const;

    /** Logical qubit at @p slot; kInvalid if empty. */
    QubitId qubitAt(SlotId slot) const;

    bool isMapped(QubitId q) const { return slotOf(q) != kInvalid; }
    bool occupied(SlotId slot) const { return qubitAt(slot) != kInvalid; }

    /** Number of logical qubits currently placed. */
    int numMapped() const;

    /** Place @p q at @p slot. @pre q unmapped and slot empty. */
    void place(QubitId q, SlotId slot);

    /** Remove @p q from the layout. @pre mapped. */
    void remove(QubitId q);

    /** Exchange the occupants of two slots (either may be empty). */
    void swapSlots(SlotId a, SlotId b);

    /** True iff both slots of @p u are occupied. */
    bool unitEncoded(UnitId u) const;

    /** Number of logical qubits on unit @p u (0, 1 or 2). */
    int unitOccupancy(UnitId u) const;

    /** Number of encoded (two-qubit) units. */
    int numEncodedUnits() const;

    /**
     * Monotonic counter of mutations that can change routing/mapping
     * edge costs. Costs depend on the layout only through slot
     * occupancy (and the derived encoded state), so it bumps on
     * place/remove and on swapSlots between an occupied and an empty
     * slot -- but NOT on the occupied-occupied exchanges routing
     * performs, which leave every edge cost intact. DistanceFieldCache
     * uses it as the fast-path validity check for cached fields.
     */
    std::uint64_t costVersion() const { return costVersion_; }

    /**
     * The costVersion() value at which unit @p u last changed
     * occupancy (0 if never). Never decreases, and never exceeds
     * costVersion(). DistanceFieldCache compares it against a field's
     * stamp to skip units that cannot have perturbed the field --
     * the per-node dirty epoch behind partial invalidation.
     */
    std::uint64_t unitEpoch(UnitId u) const;

    /**
     * Occupancy signature of unit @p u: bit 0 = position-0 slot
     * occupied, bit 1 = position-1 slot occupied (so 3 == encoded).
     * Every mapping/routing edge cost is a pure function of these
     * signatures; DistanceFieldCache snapshots them per cached field
     * and revalidates by comparing only the bits a field depends on
     * (HotpathCache.SeededMutationsMatchFreshFields drives seeded
     * place/remove/swapSlots sequences against fresh fields).
     */
    std::uint8_t unitSignature(UnitId u) const;

    /**
     * Identifies this Layout instance for cache stamping; fresh per
     * construction and per copy (see the copy constructor), preserved
     * by moves.
     */
    std::uint64_t instanceId() const { return id_; }

  private:
    void noteOccupancyChange(SlotId slot);

    std::vector<SlotId> qubitToSlot_;
    std::vector<QubitId> slotToQubit_;
    std::vector<std::uint64_t> unitEpoch_;
    std::uint64_t costVersion_ = 0;
    std::uint64_t id_ = 0;
};

} // namespace qompress

#endif // QOMPRESS_COMPILER_LAYOUT_HH
