#include "compiler/layout.hh"

#include <atomic>

#include "common/error.hh"

namespace qompress {

namespace {

std::uint64_t
nextLayoutId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

Layout::Layout() : id_(nextLayoutId()) {}

Layout::Layout(int num_qubits, int num_units)
    : qubitToSlot_(num_qubits, kInvalid),
      slotToQubit_(2 * num_units, kInvalid),
      unitEpoch_(num_units, 0),
      id_(nextLayoutId())
{
    QFATAL_IF(num_qubits < 0 || num_units < 0, "negative layout size");
}

Layout::Layout(const Layout &other)
    : qubitToSlot_(other.qubitToSlot_),
      slotToQubit_(other.slotToQubit_),
      unitEpoch_(other.unitEpoch_),
      costVersion_(other.costVersion_),
      id_(nextLayoutId())
{
}

Layout &
Layout::operator=(const Layout &other)
{
    if (this != &other) {
        qubitToSlot_ = other.qubitToSlot_;
        slotToQubit_ = other.slotToQubit_;
        unitEpoch_ = other.unitEpoch_;
        costVersion_ = other.costVersion_;
        id_ = nextLayoutId();
    }
    return *this;
}

SlotId
Layout::slotOf(QubitId q) const
{
    QPANIC_IF(q < 0 || q >= numQubits(), "slotOf: bad qubit ", q);
    return qubitToSlot_[q];
}

QubitId
Layout::qubitAt(SlotId slot) const
{
    QPANIC_IF(slot < 0 || slot >= numSlots(), "qubitAt: bad slot ", slot);
    return slotToQubit_[slot];
}

int
Layout::numMapped() const
{
    int count = 0;
    for (SlotId s : qubitToSlot_) {
        if (s != kInvalid)
            ++count;
    }
    return count;
}

std::uint64_t
Layout::unitEpoch(UnitId u) const
{
    QPANIC_IF(u < 0 || u >= numUnits(), "unitEpoch: bad unit ", u);
    return unitEpoch_[u];
}

std::uint8_t
Layout::unitSignature(UnitId u) const
{
    QPANIC_IF(u < 0 || u >= numUnits(), "unitSignature: bad unit ", u);
    return static_cast<std::uint8_t>(
        (slotToQubit_[makeSlot(u, 0)] != kInvalid ? 1 : 0) |
        (slotToQubit_[makeSlot(u, 1)] != kInvalid ? 2 : 0));
}

void
Layout::noteOccupancyChange(SlotId slot)
{
    ++costVersion_;
    unitEpoch_[slotUnit(slot)] = costVersion_;
}

void
Layout::place(QubitId q, SlotId slot)
{
    QPANIC_IF(slotOf(q) != kInvalid, "place: qubit ", q, " already mapped");
    QPANIC_IF(qubitAt(slot) != kInvalid, "place: slot ", slot, " occupied");
    qubitToSlot_[q] = slot;
    slotToQubit_[slot] = q;
    noteOccupancyChange(slot);
}

void
Layout::remove(QubitId q)
{
    const SlotId s = slotOf(q);
    QPANIC_IF(s == kInvalid, "remove: qubit ", q, " not mapped");
    qubitToSlot_[q] = kInvalid;
    slotToQubit_[s] = kInvalid;
    noteOccupancyChange(s);
}

void
Layout::swapSlots(SlotId a, SlotId b)
{
    QPANIC_IF(a < 0 || a >= numSlots() || b < 0 || b >= numSlots(),
              "swapSlots: bad slots ", a, ", ", b);
    const QubitId qa = slotToQubit_[a];
    const QubitId qb = slotToQubit_[b];
    slotToQubit_[a] = qb;
    slotToQubit_[b] = qa;
    if (qa != kInvalid)
        qubitToSlot_[qa] = b;
    if (qb != kInvalid)
        qubitToSlot_[qb] = a;
    // Occupancy (hence every encoding state and edge cost) changes
    // only when exactly one side was occupied. Both endpoint units
    // mutate under one version bump.
    if ((qa == kInvalid) != (qb == kInvalid)) {
        ++costVersion_;
        unitEpoch_[slotUnit(a)] = costVersion_;
        unitEpoch_[slotUnit(b)] = costVersion_;
    }
}

bool
Layout::unitEncoded(UnitId u) const
{
    return unitOccupancy(u) == 2;
}

int
Layout::unitOccupancy(UnitId u) const
{
    QPANIC_IF(u < 0 || u >= numUnits(), "unitOccupancy: bad unit ", u);
    return (qubitAt(makeSlot(u, 0)) != kInvalid ? 1 : 0) +
           (qubitAt(makeSlot(u, 1)) != kInvalid ? 1 : 0);
}

int
Layout::numEncodedUnits() const
{
    int count = 0;
    for (UnitId u = 0; u < numUnits(); ++u) {
        if (unitEncoded(u))
            ++count;
    }
    return count;
}

} // namespace qompress
