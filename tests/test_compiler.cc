/**
 * @file
 * Tests for the compiler core: cost model, mapper, router, scheduler,
 * and the end-to-end pipeline invariants.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/device.hh"
#include "circuits/arithmetic.hh"
#include "circuits/cnu.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "ir/passes.hh"

namespace qompress {
namespace {

GateLibrary kLib;

TEST(CostModel, GateSuccessMatchesFormula)
{
    const Topology topo = Topology::line(2);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    Layout layout(2, 2);
    layout.place(0, makeSlot(0, 0));
    layout.place(1, makeSlot(1, 0));

    const double dur = kLib.duration(PhysGateClass::CxBareBare);
    const double expect = 0.99 * std::exp(-dur / kLib.t1Qubit()) *
                          std::exp(-dur / kLib.t1Qubit());
    EXPECT_NEAR(cost.gateSuccess(PhysGateClass::CxBareBare,
                                 makeSlot(0, 0), makeSlot(1, 0), layout),
                expect, 1e-12);
}

TEST(CostModel, EncodedUnitsDecayFaster)
{
    const Topology topo = Topology::line(2);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    Layout bare(4, 2);
    bare.place(0, makeSlot(0, 0));
    bare.place(1, makeSlot(1, 0));
    Layout encoded = bare;
    encoded.place(2, makeSlot(0, 1));
    encoded.place(3, makeSlot(1, 1));
    // Same class on encoded units must be less likely to succeed.
    EXPECT_LT(cost.gateSuccess(PhysGateClass::SwapEnc00, makeSlot(0, 0),
                               makeSlot(1, 0), encoded),
              cost.gateSuccess(PhysGateClass::SwapBareBare,
                               makeSlot(0, 0), makeSlot(1, 0), bare));
}

TEST(CostModel, RoutingRefusesEmptySlots)
{
    const Topology topo = Topology::line(2);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    Layout layout(1, 2);
    layout.place(0, makeSlot(0, 0));
    EXPECT_EQ(cost.routingHopCost(makeSlot(0, 0), makeSlot(1, 0), layout),
              ShortestPaths::kInf);
}

TEST(CostModel, ThroughQuquartPenaltyApplies)
{
    const Topology topo = Topology::line(2);
    const ExpandedGraph xg(topo);
    const CostModel plain(xg, kLib, 1.0);
    const CostModel penal(xg, kLib, 2.0);
    Layout layout(3, 2);
    layout.place(0, makeSlot(0, 0));
    layout.place(1, makeSlot(1, 0));
    layout.place(2, makeSlot(1, 1)); // unit 1 encoded
    const double base =
        plain.routingHopCost(makeSlot(0, 0), makeSlot(1, 0), layout);
    const double with =
        penal.routingHopCost(makeSlot(0, 0), makeSlot(1, 0), layout);
    EXPECT_NEAR(with, 2.0 * base, 1e-12);
}

/**
 * The table-priced distance fields equal Dijkstra over the per-call
 * pricers, dist and parent bit for bit: every zoo device, under no
 * calibration, a neutral one, and per-unit T1s with per-coupling
 * fidelity/duration scales, on seeded layouts that mix empty, bare
 * (either position) and encoded units.
 */
TEST(CostModel, TablePricedFieldsMatchPerCallDijkstra)
{
    const DeviceRegistry reg;
    Rng rng(20231);
    for (const std::string &name : reg.names()) {
        const Topology topo = reg.get(name).topology;
        const int units = topo.numUnits();
        const ExpandedGraph xg(topo);

        std::vector<std::shared_ptr<const DeviceCalibration>> cals{
            nullptr,
            std::make_shared<DeviceCalibration>(DeviceCalibration::uniform(
                name, units, kLib.t1Qubit(), kLib.t1Ququart()))};
        auto scaled = std::make_shared<DeviceCalibration>(
            DeviceCalibration::uniform(name, units, kLib.t1Qubit(),
                                       kLib.t1Ququart(), 0.01));
        for (UnitId u = 0; u < units; ++u) {
            scaled->t1QubitNs[u] = rng.nextDouble(60e3, 250e3);
            scaled->t1QuquartNs[u] = rng.nextDouble(20e3, 80e3);
        }
        for (const auto &e : topo.graph().edges()) {
            if (rng.nextBool(0.7)) {
                scaled->setEdge(e.u, e.v, rng.nextDouble(0.9, 1.0),
                                rng.nextDouble(0.7, 1.5));
            }
        }
        cals.push_back(scaled);

        for (const auto &cal : cals) {
            const CostModel cost(xg, kLib, 1.25, cal.get());
            for (int trial = 0; trial < 3; ++trial) {
                const int qubits = rng.nextInt(1, 2 * units);
                std::vector<SlotId> slots(2 * units);
                for (SlotId s = 0; s < 2 * units; ++s)
                    slots[s] = s;
                rng.shuffle(slots);
                Layout layout(qubits, units);
                for (QubitId q = 0; q < qubits; ++q)
                    layout.place(q, slots[q]);
                for (int k = 0; k < 3; ++k) {
                    const SlotId src = rng.nextInt(0, 2 * units - 1);
                    const auto map_ref = dijkstra(
                        xg.graph(), src, [&](int u, int v, double) {
                            return cost.swapCost(u, v, layout);
                        });
                    const auto map = cost.mappingDistances(src, layout);
                    EXPECT_EQ(map.dist, map_ref.dist) << name;
                    EXPECT_EQ(map.parent, map_ref.parent) << name;
                    const auto route_ref = dijkstra(
                        xg.graph(), src, [&](int u, int v, double) {
                            return cost.routingHopCost(u, v, layout);
                        });
                    const auto route = cost.routingDistances(src, layout);
                    EXPECT_EQ(route.dist, route_ref.dist) << name;
                    EXPECT_EQ(route.parent, route_ref.parent) << name;
                }
            }
        }
    }
}

TEST(Mapper, QubitOnlyUsesDistinctUnits)
{
    const Circuit c = decomposeToNativeGates(cuccaroAdder(2)); // 6 qb
    const Topology topo = Topology::grid(6);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    const InteractionModel im(c);
    MapperOptions opts; // no pairs, no dynamic slot1
    const Layout layout = mapCircuit(c, im, cost, opts);
    EXPECT_EQ(layout.numMapped(), 6);
    EXPECT_EQ(layout.numEncodedUnits(), 0);
    for (QubitId q = 0; q < 6; ++q)
        EXPECT_EQ(slotPos(layout.slotOf(q)), 0);
}

TEST(Mapper, PairsShareAUnitWithCommittedOrder)
{
    const Circuit c = decomposeToNativeGates(cuccaroAdder(2));
    const Topology topo = Topology::grid(6);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    const InteractionModel im(c);
    MapperOptions opts;
    opts.pairs = {{1, 2}, {3, 4}};
    const Layout layout = mapCircuit(c, im, cost, opts);
    for (const auto &p : opts.pairs) {
        const SlotId sf = layout.slotOf(p.first);
        const SlotId ss = layout.slotOf(p.second);
        EXPECT_EQ(slotUnit(sf), slotUnit(ss));
        EXPECT_EQ(slotPos(sf), 0);
        EXPECT_EQ(slotPos(ss), 1);
    }
    EXPECT_EQ(layout.numEncodedUnits(), 2);
}

TEST(Mapper, CapacityEnforced)
{
    const Circuit c = decomposeToNativeGates(cuccaroAdder(3)); // 8 qb
    const Topology topo = Topology::line(4);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    const InteractionModel im(c);
    MapperOptions opts; // qubit-only: capacity 4 < 8
    EXPECT_THROW(mapCircuit(c, im, cost, opts), FatalError);
    opts.allowDynamicSlot1 = true; // capacity 8: fits
    const Layout layout = mapCircuit(c, im, cost, opts);
    EXPECT_EQ(layout.numMapped(), 8);
    EXPECT_EQ(layout.numEncodedUnits(), 4);
}

TEST(Mapper, RejectsOverlappingPairs)
{
    const Circuit c = decomposeToNativeGates(cuccaroAdder(2));
    const Topology topo = Topology::grid(6);
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    const InteractionModel im(c);
    MapperOptions opts;
    opts.pairs = {{0, 1}, {1, 2}};
    EXPECT_THROW(mapCircuit(c, im, cost, opts), FatalError);
}

TEST(Router, AdjacentGateNeedsNoSwaps)
{
    Circuit c(2, "tiny");
    c.cx(0, 1);
    const CompileResult res = compileWithPairs(
        c, Topology::line(2), kLib, {}, false);
    EXPECT_EQ(res.compiled.numRoutingGates(), 0);
    ASSERT_EQ(res.compiled.numGates(), 1);
    EXPECT_EQ(res.compiled.gates()[0].cls, PhysGateClass::CxBareBare);
}

TEST(Router, DistantOperandsGetSwapChains)
{
    // Force qubits far apart on a line by an interaction pattern the
    // mapper cannot fully localize.
    Circuit c(5, "chain");
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.cx(3, 4);
    c.cx(0, 4); // long-distance interaction
    const CompileResult res = compileWithPairs(
        c, Topology::line(5), kLib, {}, false);
    EXPECT_GT(res.compiled.numRoutingGates(), 0);
    // Validation runs inside compileWithPairs; re-run explicitly too.
    validateCompiled(res.compiled, Topology::line(5));
}

TEST(Router, InternalGatesForCompressedPair)
{
    Circuit c(2, "pair");
    c.cx(0, 1);
    c.cx(1, 0);
    const CompileResult res = compileWithPairs(
        c, Topology::line(2), kLib, {{0, 1}}, false);
    const auto hist = res.compiled.classHistogram();
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::CxInternal0)], 1);
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::CxInternal1)], 1);
}

TEST(Router, FusesParallelSingleQubitGatesOnOneQuquart)
{
    Circuit c(2, "fuse");
    c.h(0);
    c.h(1); // same ASAP layer, both qubits in one ququart
    const CompileResult res = compileWithPairs(
        c, Topology::line(2), kLib, {{0, 1}}, false);
    const auto hist = res.compiled.classHistogram();
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::SqEncBoth)], 1);
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::SqEnc0)], 0);
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::SqEnc1)], 0);
}

TEST(Router, SequentialSingleQubitGatesStaySeparate)
{
    Circuit c(2, "nofuse");
    c.h(0);
    c.x(0); // layer 2 on the same qubit: no partner to fuse with
    c.h(1);
    const CompileResult res = compileWithPairs(
        c, Topology::line(2), kLib, {{0, 1}}, false);
    const auto hist = res.compiled.classHistogram();
    // h0+h1 fuse (layer 1), x0 remains alone.
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::SqEncBoth)], 1);
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::SqEnc0)], 1);
}

TEST(Scheduler, GatesOnOneUnitSerialize)
{
    Circuit c(2, "serial");
    c.x(0);
    c.x(1);
    // Compressed: both 1q gates fuse... use sequential layers instead.
    Circuit c2(2, "serial2");
    c2.x(0);
    c2.cx(0, 1);
    CompilerConfig cfg;
    cfg.chargeInitialEnc = false;
    const CompileResult res = compileWithPairs(
        c2, Topology::line(2), kLib, {{0, 1}}, false, cfg);
    ASSERT_EQ(res.compiled.numGates(), 2);
    const auto &g = res.compiled.gates();
    EXPECT_GE(g[1].start, g[0].end());
}

TEST(Scheduler, IndependentUnitsOverlap)
{
    Circuit c(4, "parallel");
    c.cx(0, 1);
    c.cx(2, 3);
    const CompileResult res = compileWithPairs(
        c, Topology::line(4), kLib, {}, false);
    ASSERT_EQ(res.compiled.numGates(), 2);
    const auto &g = res.compiled.gates();
    EXPECT_DOUBLE_EQ(g[0].start, 0.0);
    EXPECT_DOUBLE_EQ(g[1].start, 0.0);
}

TEST(Scheduler, CriticalGatesCoverLongestPath)
{
    Circuit c(4, "crit");
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    CompileResult res = compileWithPairs(
        c, Topology::line(4), kLib, {}, false);
    const auto crit = criticalGates(res.compiled);
    // The serialized CX chain is entirely critical.
    for (std::size_t i = 0; i < crit.size(); ++i)
        EXPECT_TRUE(crit[i]) << "gate " << i;
}

TEST(Pipeline, InitialEncChargedPerPair)
{
    Circuit c(4, "enc");
    c.cx(0, 1);
    c.cx(2, 3);
    CompilerConfig cfg;
    cfg.chargeInitialEnc = true;
    const CompileResult with_enc = compileWithPairs(
        c, Topology::grid(4), kLib, {{0, 1}, {2, 3}}, false, cfg);
    cfg.chargeInitialEnc = false;
    const CompileResult no_enc = compileWithPairs(
        c, Topology::grid(4), kLib, {{0, 1}, {2, 3}}, false, cfg);
    const auto hist = with_enc.compiled.classHistogram();
    EXPECT_EQ(hist[static_cast<int>(PhysGateClass::Encode)], 2);
    EXPECT_EQ(with_enc.compiled.numGates(), no_enc.compiled.numGates() + 2);
    EXPECT_LT(with_enc.metrics.gateEps, no_enc.metrics.gateEps);
}

TEST(Pipeline, ReportsActualCompressions)
{
    Circuit c(4, "rep");
    c.cx(0, 1);
    c.cx(2, 3);
    const CompileResult res = compileWithPairs(
        c, Topology::grid(4), kLib, {{2, 3}}, false);
    ASSERT_EQ(res.compressions.size(), 1u);
    EXPECT_EQ(res.compressions[0].first, 2);
    EXPECT_EQ(res.compressions[0].second, 3);
}

TEST(Pipeline, FinalLayoutMatchesReplay)
{
    const Circuit c = decomposeToNativeGates(generalizedToffoli(3));
    const Topology topo = Topology::grid(c.numQubits());
    const CompileResult res = compileWithPairs(c, topo, kLib, {}, false);
    const Layout replayed = replayFinalLayout(res.compiled);
    for (QubitId q = 0; q < c.numQubits(); ++q)
        EXPECT_EQ(replayed.slotOf(q),
                  res.compiled.finalLayout().slotOf(q));
}

TEST(Pipeline, NonNativeInputIsDecomposedAutomatically)
{
    Circuit c(3, "ccx");
    c.ccx(0, 1, 2);
    const CompileResult res = compileWithPairs(
        c, Topology::grid(3), kLib, {}, false);
    EXPECT_GE(res.compiled.numGates(), 15);
}

} // namespace
} // namespace qompress
