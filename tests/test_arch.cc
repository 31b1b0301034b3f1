/**
 * @file
 * Tests for topologies, the expanded graph, and the gate library.
 */

#include <gtest/gtest.h>

#include "arch/device.hh"
#include "arch/expanded_graph.hh"
#include "arch/gate_library.hh"
#include "arch/topology.hh"
#include "common/error.hh"
#include "graph/algorithms.hh"

namespace qompress {
namespace {

TEST(Topology, GridSizing)
{
    const Topology t = Topology::grid(12); // ceil(sqrt(12)) = 4 cols
    EXPECT_GE(t.numUnits(), 12);
    EXPECT_EQ(t.numUnits(), 12); // 3 rows x 4 cols
    const Topology u = Topology::grid(10);
    EXPECT_EQ(u.numUnits(), 12); // 3 x 4 again (rounded up)
}

TEST(Topology, GridEdges)
{
    const Topology t = Topology::gridExplicit(3, 4);
    // Horizontal 3*3 + vertical 2*4.
    EXPECT_EQ(t.numEdges(), 17);
    EXPECT_TRUE(t.adjacent(0, 1));
    EXPECT_TRUE(t.adjacent(0, 4));
    EXPECT_FALSE(t.adjacent(0, 5));
}

TEST(Topology, HeavyHex65Shape)
{
    const Topology t = Topology::heavyHex65();
    EXPECT_EQ(t.numUnits(), 65);
    EXPECT_EQ(t.numEdges(), 72);
    // Bridge qubits have degree 2; row interiors degree 2-3.
    EXPECT_EQ(t.graph().degree(10), 2);
    EXPECT_TRUE(t.adjacent(10, 0));
    EXPECT_TRUE(t.adjacent(10, 13));
    // Connected.
    const auto comp = connectedComponents(t.graph());
    for (int c : comp)
        EXPECT_EQ(c, 0);
}

TEST(Topology, RingAndLine)
{
    const Topology r = Topology::ring(8);
    EXPECT_EQ(r.numEdges(), 8);
    EXPECT_TRUE(r.adjacent(0, 7));
    const Topology l = Topology::line(5);
    EXPECT_EQ(l.numEdges(), 4);
    EXPECT_FALSE(l.adjacent(0, 4));
    EXPECT_EQ(l.centerUnit(), 2);
}

TEST(Topology, CenterOfGrid)
{
    const Topology t = Topology::gridExplicit(3, 3);
    EXPECT_EQ(t.centerUnit(), 4);
}

/** The centre by definition: the first unit of minimum eccentricity
 *  (over the units it reaches), from one bfs() per unit. */
UnitId
referenceCenter(const Topology &t)
{
    UnitId best = 0;
    double best_ecc = ShortestPaths::kInf;
    for (UnitId u = 0; u < t.numUnits(); ++u) {
        double ecc = 0.0;
        for (double d : bfs(t.graph(), u).dist) {
            if (d != ShortestPaths::kInf)
                ecc = std::max(ecc, d);
        }
        if (ecc < best_ecc) {
            best_ecc = ecc;
            best = u;
        }
    }
    return best;
}

TEST(ExpandedGraph, CenterMatchesTopologyAcrossZoo)
{
    std::vector<Topology> topos;
    const DeviceRegistry reg;
    for (const std::string &name : reg.names())
        topos.push_back(reg.get(name).topology);
    for (int n : {3, 7, 8})
        topos.push_back(Topology::ring(n));
    topos.push_back(Topology::line(1));
    topos.push_back(Topology::line(9));
    topos.push_back(Topology::grid(10));
    topos.push_back(Topology::complete(5));
    // Two components: eccentricity counts reachable units only.
    topos.push_back(Topology::fromEdgeList(
        {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}}, "split"));
    for (const Topology &t : topos) {
        const ExpandedGraph xg(t);
        EXPECT_EQ(xg.centerUnit(), t.centerUnit()) << t.name();
        EXPECT_EQ(t.centerUnit(), referenceCenter(t)) << t.name();
    }
}

TEST(ExpandedGraph, NodeAndEdgeCounts)
{
    // Paper section 4.1: 2V nodes, 4E + V edges.
    const Topology t = Topology::gridExplicit(2, 3); // V=6, E=7
    const ExpandedGraph xg(t);
    EXPECT_EQ(xg.numSlots(), 12);
    EXPECT_EQ(xg.graph().numEdges(), 4 * 7 + 6);
}

TEST(ExpandedGraph, Adjacency)
{
    const Topology t = Topology::line(3);
    const ExpandedGraph xg(t);
    // Internal edge.
    EXPECT_TRUE(xg.adjacent(makeSlot(0, 0), makeSlot(0, 1)));
    // All four cross edges between coupled units.
    for (int pa = 0; pa < 2; ++pa)
        for (int pb = 0; pb < 2; ++pb)
            EXPECT_TRUE(xg.adjacent(makeSlot(0, pa), makeSlot(1, pb)));
    // No edge between uncoupled units.
    EXPECT_FALSE(xg.adjacent(makeSlot(0, 0), makeSlot(2, 0)));
    EXPECT_TRUE(ExpandedGraph::sameUnit(makeSlot(1, 0), makeSlot(1, 1)));
}

TEST(SlotHelpers, RoundTrip)
{
    for (UnitId u = 0; u < 5; ++u) {
        for (int pos = 0; pos < 2; ++pos) {
            const SlotId s = makeSlot(u, pos);
            EXPECT_EQ(slotUnit(s), u);
            EXPECT_EQ(slotPos(s), pos);
        }
    }
}

TEST(GateLibrary, Table1Durations)
{
    const GateLibrary lib;
    // Spot-check every column of Table 1.
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SqBare), 35.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SqEnc0), 87.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SqEnc1), 66.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SqEncBoth), 86.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxInternal0), 83.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxInternal1), 84.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapInternal), 78.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxBareBare), 251.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapBareBare), 504.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxEnc0Bare), 560.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxEnc1Bare), 632.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxBareEnc0), 880.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxBareEnc1), 812.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapBareEnc0), 680.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapBareEnc1), 792.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxEnc00), 544.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxEnc01), 544.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxEnc10), 700.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxEnc11), 700.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapEnc00), 916.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapEnc01), 892.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapEnc11), 964.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::SwapFull), 1184.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::Encode), 608.0);
}

TEST(GateLibrary, FidelityTiers)
{
    const GateLibrary lib;
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::SqBare), 0.999);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::CxInternal0), 0.999);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::SwapInternal), 0.999);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::CxBareBare), 0.99);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::SwapEnc11), 0.99);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::Encode), 0.99);
}

TEST(GateLibrary, T1Defaults)
{
    const GateLibrary lib;
    EXPECT_DOUBLE_EQ(lib.t1Qubit(), 163500.0);
    EXPECT_DOUBLE_EQ(lib.t1Ququart(), 54500.0);
    EXPECT_NEAR(lib.t1Qubit() / 3.0, lib.t1Ququart(), 1.0);
}

TEST(GateLibrary, Overrides)
{
    GateLibrary lib;
    lib.setDuration(PhysGateClass::CxBareBare, 300.0);
    EXPECT_DOUBLE_EQ(lib.duration(PhysGateClass::CxBareBare), 300.0);
    lib.setFidelity(PhysGateClass::CxBareBare, 0.995);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::CxBareBare), 0.995);
    lib.setT1(100000.0, 50000.0);
    EXPECT_DOUBLE_EQ(lib.t1Ququart(), 50000.0);
    lib.setQubitGateError(1e-4, 1e-3);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::SqBare), 1.0 - 1e-4);
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::SwapBareBare),
                     1.0 - 1e-3);
    // Ququart gates untouched.
    EXPECT_DOUBLE_EQ(lib.fidelity(PhysGateClass::CxEnc00), 0.99);
    EXPECT_THROW(lib.setFidelity(PhysGateClass::SqBare, 1.5), FatalError);
    EXPECT_THROW(lib.setDuration(PhysGateClass::SqBare, -1.0),
                 FatalError);
}

TEST(Classification, CxAllCases)
{
    // Internal.
    EXPECT_EQ(classifyCx(0, true, 1, true, true),
              PhysGateClass::CxInternal0);
    EXPECT_EQ(classifyCx(1, true, 0, true, true),
              PhysGateClass::CxInternal1);
    // Bare-bare.
    EXPECT_EQ(classifyCx(0, false, 0, false, false),
              PhysGateClass::CxBareBare);
    // Encoded control, bare target.
    EXPECT_EQ(classifyCx(0, true, 0, false, false),
              PhysGateClass::CxEnc0Bare);
    EXPECT_EQ(classifyCx(1, true, 0, false, false),
              PhysGateClass::CxEnc1Bare);
    // Bare control, encoded target.
    EXPECT_EQ(classifyCx(0, false, 0, true, false),
              PhysGateClass::CxBareEnc0);
    EXPECT_EQ(classifyCx(0, false, 1, true, false),
              PhysGateClass::CxBareEnc1);
    // Encoded-encoded.
    EXPECT_EQ(classifyCx(0, true, 0, true, false),
              PhysGateClass::CxEnc00);
    EXPECT_EQ(classifyCx(0, true, 1, true, false),
              PhysGateClass::CxEnc01);
    EXPECT_EQ(classifyCx(1, true, 0, true, false),
              PhysGateClass::CxEnc10);
    EXPECT_EQ(classifyCx(1, true, 1, true, false),
              PhysGateClass::CxEnc11);
}

TEST(Classification, SwapAllCases)
{
    EXPECT_EQ(classifySwap(0, true, 1, true, true),
              PhysGateClass::SwapInternal);
    EXPECT_EQ(classifySwap(0, false, 0, false, false),
              PhysGateClass::SwapBareBare);
    EXPECT_EQ(classifySwap(0, true, 0, false, false),
              PhysGateClass::SwapBareEnc0);
    EXPECT_EQ(classifySwap(0, false, 1, true, false),
              PhysGateClass::SwapBareEnc1);
    EXPECT_EQ(classifySwap(0, true, 0, true, false),
              PhysGateClass::SwapEnc00);
    EXPECT_EQ(classifySwap(0, true, 1, true, false),
              PhysGateClass::SwapEnc01);
    EXPECT_EQ(classifySwap(1, true, 0, true, false),
              PhysGateClass::SwapEnc01); // symmetric
    EXPECT_EQ(classifySwap(1, true, 1, true, false),
              PhysGateClass::SwapEnc11);
}

TEST(Classification, SqCases)
{
    EXPECT_EQ(classifySq(0, false), PhysGateClass::SqBare);
    EXPECT_EQ(classifySq(0, true), PhysGateClass::SqEnc0);
    EXPECT_EQ(classifySq(1, true), PhysGateClass::SqEnc1);
}

TEST(Classification, NamesMatchPaperNotation)
{
    EXPECT_EQ(physGateClassName(PhysGateClass::CxEnc0Bare), "CX0q");
    EXPECT_EQ(physGateClassName(PhysGateClass::CxBareEnc1), "CXq1");
    EXPECT_EQ(physGateClassName(PhysGateClass::SwapFull), "SWAP4");
    EXPECT_EQ(physGateClassName(PhysGateClass::SwapInternal), "SWAPin");
    EXPECT_TRUE(isSingleUnitClass(PhysGateClass::SwapInternal));
    EXPECT_FALSE(isSingleUnitClass(PhysGateClass::SwapFull));
}

} // namespace
} // namespace qompress
