/**
 * @file
 * Tests for the Layout bidirectional qubit/slot map, including
 * property tests of the invariants the partial-invalidation distance
 * cache relies on: occupancy bijectivity, costVersion monotonicity,
 * and per-unit epochs that never decrease and never outrun the
 * version.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/layout.hh"

namespace qompress {
namespace {

TEST(Layout, PlaceAndLookup)
{
    Layout l(3, 4);
    EXPECT_EQ(l.numSlots(), 8);
    l.place(0, makeSlot(1, 0));
    EXPECT_EQ(l.slotOf(0), makeSlot(1, 0));
    EXPECT_EQ(l.qubitAt(makeSlot(1, 0)), 0);
    EXPECT_TRUE(l.isMapped(0));
    EXPECT_FALSE(l.isMapped(1));
    EXPECT_EQ(l.numMapped(), 1);
}

TEST(Layout, DoublePlacePanics)
{
    Layout l(2, 2);
    l.place(0, 0);
    EXPECT_THROW(l.place(0, 1), PanicError); // qubit again
    EXPECT_THROW(l.place(1, 0), PanicError); // slot occupied
}

TEST(Layout, RemoveFreesBoth)
{
    Layout l(2, 2);
    l.place(0, 2);
    l.remove(0);
    EXPECT_FALSE(l.isMapped(0));
    EXPECT_FALSE(l.occupied(2));
    EXPECT_THROW(l.remove(0), PanicError);
}

TEST(Layout, SwapSlotsOccupiedPair)
{
    Layout l(2, 2);
    l.place(0, makeSlot(0, 0));
    l.place(1, makeSlot(1, 0));
    l.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    EXPECT_EQ(l.qubitAt(makeSlot(0, 0)), 1);
    EXPECT_EQ(l.qubitAt(makeSlot(1, 0)), 0);
    EXPECT_EQ(l.slotOf(0), makeSlot(1, 0));
}

TEST(Layout, SwapSlotsWithEmpty)
{
    Layout l(1, 2);
    l.place(0, makeSlot(0, 0));
    l.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    EXPECT_FALSE(l.occupied(makeSlot(0, 0)));
    EXPECT_EQ(l.slotOf(0), makeSlot(1, 0));
}

TEST(Layout, EpochAndVersionBasics)
{
    Layout l(4, 3);
    EXPECT_EQ(l.costVersion(), 0u);
    for (UnitId u = 0; u < 3; ++u) {
        EXPECT_EQ(l.unitEpoch(u), 0u);
        EXPECT_EQ(l.unitSignature(u), 0);
    }

    l.place(0, makeSlot(1, 0));
    EXPECT_EQ(l.unitEpoch(1), l.costVersion());
    EXPECT_EQ(l.unitEpoch(0), 0u);
    EXPECT_EQ(l.unitSignature(1), 1);

    l.place(1, makeSlot(1, 1));
    EXPECT_EQ(l.unitSignature(1), 3);

    // Occupied <-> occupied exchange: neither version nor epochs move.
    l.place(2, makeSlot(2, 0));
    const auto v = l.costVersion();
    const auto e1 = l.unitEpoch(1);
    const auto e2 = l.unitEpoch(2);
    l.swapSlots(makeSlot(1, 0), makeSlot(2, 0));
    EXPECT_EQ(l.costVersion(), v);
    EXPECT_EQ(l.unitEpoch(1), e1);
    EXPECT_EQ(l.unitEpoch(2), e2);

    // Occupied <-> empty moves occupancy on BOTH endpoint units.
    l.swapSlots(makeSlot(2, 0), makeSlot(0, 0));
    EXPECT_GT(l.costVersion(), v);
    EXPECT_EQ(l.unitEpoch(2), l.costVersion());
    EXPECT_EQ(l.unitEpoch(0), l.costVersion());
    EXPECT_EQ(l.unitEpoch(1), e1);
}

TEST(Layout, CopiesGetFreshInstanceIds)
{
    Layout a(2, 2);
    const Layout b = a;
    Layout c;
    c = a;
    EXPECT_NE(a.instanceId(), b.instanceId());
    EXPECT_NE(a.instanceId(), c.instanceId());
    EXPECT_NE(b.instanceId(), c.instanceId());
    // State is still copied faithfully.
    EXPECT_EQ(b.numQubits(), a.numQubits());
    EXPECT_EQ(b.costVersion(), a.costVersion());
}

/**
 * Property test: random mutation sequences preserve the invariants
 * the cache depends on. Mirrors the Layout against a simple shadow
 * model and checks after every step.
 */
TEST(LayoutProperties, InvariantsUnderRandomMutationSequences)
{
    Rng rng(20260725);
    const int kQubits = 10;
    const int kUnits = 8;
    const int kSteps = 2000;

    Layout l(kQubits, kUnits);
    std::vector<SlotId> shadow(kQubits, kInvalid); // qubit -> slot
    std::uint64_t last_version = 0;
    std::vector<std::uint64_t> last_epoch(kUnits, 0);

    auto check = [&]() {
        // Occupancy bijectivity against the shadow model.
        int mapped = 0;
        for (QubitId q = 0; q < kQubits; ++q) {
            ASSERT_EQ(l.slotOf(q), shadow[q]) << "qubit " << q;
            if (shadow[q] != kInvalid) {
                ++mapped;
                ASSERT_EQ(l.qubitAt(shadow[q]), q);
            }
        }
        ASSERT_EQ(l.numMapped(), mapped);
        for (SlotId s = 0; s < l.numSlots(); ++s) {
            const QubitId q = l.qubitAt(s);
            if (q != kInvalid) {
                ASSERT_EQ(shadow[q], s) << "slot " << s;
            }
        }
        // Version monotone; epochs monotone and bounded by it.
        ASSERT_GE(l.costVersion(), last_version);
        last_version = l.costVersion();
        for (UnitId u = 0; u < kUnits; ++u) {
            ASSERT_GE(l.unitEpoch(u), last_epoch[u]) << "unit " << u;
            ASSERT_LE(l.unitEpoch(u), l.costVersion()) << "unit " << u;
            last_epoch[u] = l.unitEpoch(u);
            // Signature consistent with occupancy accessors.
            const int occ = l.unitOccupancy(u);
            const std::uint8_t sig = l.unitSignature(u);
            ASSERT_EQ((sig & 1) + ((sig >> 1) & 1), occ);
            ASSERT_EQ(sig == 3, l.unitEncoded(u));
        }
    };

    check();
    for (int step = 0; step < kSteps; ++step) {
        const int op = rng.nextInt(0, 2);
        if (op == 0) { // place a random unmapped qubit on a free slot
            const QubitId q = rng.nextInt(0, kQubits - 1);
            const SlotId s = rng.nextInt(0, l.numSlots() - 1);
            if (shadow[q] == kInvalid && l.qubitAt(s) == kInvalid) {
                const auto v = l.costVersion();
                l.place(q, s);
                shadow[q] = s;
                ASSERT_EQ(l.costVersion(), v + 1);
                ASSERT_EQ(l.unitEpoch(slotUnit(s)), l.costVersion());
            }
        } else if (op == 1) { // remove a random mapped qubit
            const QubitId q = rng.nextInt(0, kQubits - 1);
            if (shadow[q] != kInvalid) {
                const auto v = l.costVersion();
                const UnitId u = slotUnit(shadow[q]);
                l.remove(q);
                shadow[q] = kInvalid;
                ASSERT_EQ(l.costVersion(), v + 1);
                ASSERT_EQ(l.unitEpoch(u), l.costVersion());
            }
        } else { // swap two random slots (any occupancy combination)
            const SlotId a = rng.nextInt(0, l.numSlots() - 1);
            const SlotId b = rng.nextInt(0, l.numSlots() - 1);
            const QubitId qa = l.qubitAt(a);
            const QubitId qb = l.qubitAt(b);
            const auto v = l.costVersion();
            l.swapSlots(a, b);
            if (qa != kInvalid)
                shadow[qa] = b;
            if (qb != kInvalid)
                shadow[qb] = a;
            // Version bumps exactly when occupancy changed hands.
            if ((qa == kInvalid) != (qb == kInvalid)) {
                ASSERT_EQ(l.costVersion(), v + 1);
                ASSERT_EQ(l.unitEpoch(slotUnit(a)), l.costVersion());
                ASSERT_EQ(l.unitEpoch(slotUnit(b)), l.costVersion());
            } else {
                ASSERT_EQ(l.costVersion(), v);
            }
        }
        check();
    }
}

TEST(Layout, EncodedStateTracking)
{
    Layout l(4, 3);
    l.place(0, makeSlot(0, 0));
    EXPECT_FALSE(l.unitEncoded(0));
    EXPECT_EQ(l.unitOccupancy(0), 1);
    l.place(1, makeSlot(0, 1));
    EXPECT_TRUE(l.unitEncoded(0));
    EXPECT_EQ(l.unitOccupancy(0), 2);
    l.place(2, makeSlot(2, 0));
    EXPECT_EQ(l.numEncodedUnits(), 1);
}

} // namespace
} // namespace qompress
