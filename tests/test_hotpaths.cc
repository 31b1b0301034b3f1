/**
 * @file
 * Differential tests for the hot-path overhaul: optimized statevector
 * kernels vs. the retained naive reference, allocation-free GRAPE
 * gradients vs. the naive implementation, the shared-series Van Loan
 * exponential vs. the augmented-matrix construction, cached distance
 * fields vs. fresh CostModel computations, and cached routing vs. the
 * direct-Dijkstra router.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "arch/device.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "ir/passes.hh"
#include "pulse/grape.hh"
#include "pulse/targets.hh"
#include "sim/statevector.hh"
#include "strategies/awe.hh"

namespace qompress {
namespace {

TEST(HotpathSim, OptimizedMatchesNaiveOnRandomGates)
{
    Rng rng(7);
    const std::vector<int> dims = {2, 4, 2, 4, 3, 2, 4};
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;

    const std::vector<std::vector<int>> target_sets = {
        {0},    {1},    {4},          // k = 2, 4, 3
        {0, 2}, {1, 3}, {2, 1},       // k = 4, 16, 8 (incl. reversed)
        {5, 0}, {4, 6}, {0, 2, 5},    // non-adjacent and 3-unit
    };
    for (const auto &units : target_sets) {
        std::size_t k = 1;
        for (int u : units)
            k *= static_cast<std::size_t>(dims[u]);
        const GateMatrix u = bench::randomUnitary(k, rng);
        fast.applyUnitary(units, u);
        slow.applyUnitaryNaive(units, u);
    }
    EXPECT_LE(bench::maxAmpDiff(fast, slow), 1e-10);
    EXPECT_NEAR(fast.norm(), 1.0, 1e-9);
}

TEST(HotpathSim, FullStateGateHasEmptyComplement)
{
    // All units targeted: the complement odometer has zero digits, the
    // regression the old dead `rest.empty()` branch pretended to
    // handle.
    Rng rng(11);
    const std::vector<int> dims = {2, 3, 4};
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;
    const GateMatrix u = bench::randomUnitary(24, rng);
    fast.applyUnitary({0, 1, 2}, u);
    slow.applyUnitaryNaive({0, 1, 2}, u);
    EXPECT_LE(bench::maxAmpDiff(fast, slow), 1e-10);
    EXPECT_NEAR(fast.norm(), 1.0, 1e-9);
}

TEST(HotpathSim, PermutationGatesUseSparsePath)
{
    // k = 8 permutation exercises the nonzero-compressed kernel.
    Rng rng(23);
    const std::vector<int> dims = {2, 2, 2, 4};
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;
    GateMatrix perm(8);
    for (std::size_t i = 0; i < 8; ++i)
        perm[(i + 3) % 8][i] = 1.0;
    fast.applyUnitary({0, 1, 2}, perm);
    slow.applyUnitaryNaive({0, 1, 2}, perm);
    EXPECT_LE(bench::maxAmpDiff(fast, slow), 1e-12);
}

TEST(HotpathMatrix, InPlaceOpsMatchOperators)
{
    Rng rng(3);
    CMatrix a(5, 5), b(5, 5);
    for (int r = 0; r < 5; ++r) {
        for (int c = 0; c < 5; ++c) {
            a(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                      rng.nextGaussian());
            b(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                      rng.nextGaussian());
        }
    }
    CMatrix prod;
    mulInto(prod, a, b);
    const CMatrix expect = a * b;
    EXPECT_LE((prod - expect).norm(), 1e-12);

    CMatrix acc = a;
    addScaledInto(acc, CMatrix::Scalar(0.0, 2.0), b);
    const CMatrix expect2 = a + b * CMatrix::Scalar(0.0, 2.0);
    EXPECT_LE((acc - expect2).norm(), 1e-12);

    CMatrix dag;
    daggerInto(dag, a);
    EXPECT_LE((dag - a.dagger()).norm(), 1e-12);

    ExpmWorkspace ws;
    CMatrix e1;
    expmInto(e1, a * CMatrix::Scalar(0.1), ws);
    const CMatrix e2 = expm(a * CMatrix::Scalar(0.1));
    EXPECT_LE((e1 - e2).norm(), 1e-12);
}

TEST(HotpathMatrix, ExpmPadeMatchesTaylorAcrossRegimes)
{
    // expmInto is now the Padé-13 kernel (the direction-free family
    // exponential); the retained Taylor form is the reference. Cover
    // the no-squaring regime, the transition, and heavy squaring.
    Rng rng(23);
    for (double scale : {0.01, 0.4, 2.0, 8.0, 30.0}) {
        const int n = 7;
        CMatrix a(n, n);
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                // Anti-Hermitian argument, as produced by -i dt H.
                const CMatrix::Scalar v(rng.nextGaussian(),
                                        rng.nextGaussian());
                a(r, c) += v * CMatrix::Scalar(0.0, scale / n);
                a(c, r) += std::conj(v) * CMatrix::Scalar(0.0, scale / n);
            }
        }
        ExpmWorkspace ws;
        CMatrix pade, taylor;
        expmInto(pade, a, ws);
        expmIntoTaylor(taylor, a, ws);
        const double denom = std::max(1.0, taylor.norm());
        EXPECT_LE((pade - taylor).norm() / denom, 1e-11)
            << "scale " << scale;
        // e^{anti-Hermitian} is unitary; both kernels must preserve it.
        EXPECT_TRUE(pade.isUnitary(1e-9)) << "scale " << scale;
        EXPECT_LE((expm(a) - pade).norm(), 1e-14); // expm rides expmInto
    }
}

TEST(HotpathMatrix, FamilyExponentialMatchesAugmented)
{
    Rng rng(17);
    const int n = 6;
    CMatrix a(n, n);
    std::vector<CMatrix> bs(2, CMatrix(n, n));
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            // Anti-Hermitian-ish arguments as produced by -i dt H.
            a(r, c) = CMatrix::Scalar(0.0, rng.nextGaussian());
            for (auto &b : bs)
                b(r, c) = CMatrix::Scalar(0.0, 0.3 * rng.nextGaussian());
        }
    }

    ExpmFamilyWorkspace ws;
    CMatrix eA;
    std::vector<CMatrix> ds;
    expmFamilyInto(eA, ds, a, bs, ws);

    EXPECT_LE((eA - expm(a)).norm(), 1e-10);
    for (const auto &b : bs) {
        // Reference: the Van Loan augmented construction.
        CMatrix m(2 * n, 2 * n);
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                m(r, c) = a(r, c);
                m(n + r, n + c) = a(r, c);
                m(r, n + c) = b(r, c);
            }
        }
        const CMatrix e = expm(m);
        const std::size_t k = static_cast<std::size_t>(&b - bs.data());
        double worst = 0.0;
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                worst = std::max(worst,
                                 std::abs(ds[k](r, c) - e(r, n + c)));
        EXPECT_LE(worst, 1e-10);
    }
}

TEST(HotpathMatrix, LuSolverInvertsRandomSystems)
{
    Rng rng(23);
    for (int n : {1, 2, 5, 9}) {
        CMatrix a(n, n);
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                a(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                          rng.nextGaussian());
        CMatrix b(n, n + 2); // non-square right-hand side too
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n + 2; ++c)
                b(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                          rng.nextGaussian());
        LuSolver lu;
        lu.factor(a);
        CMatrix x = b;
        lu.solveInPlace(x);
        const CMatrix residual = a * x - b;
        EXPECT_LE(residual.norm(), 1e-10 * (1.0 + b.norm())) << n;
    }
}

TEST(HotpathMatrix, PadeFamilyMatchesTaylorFamilyTo1e12)
{
    // The production Padé-13 kernel vs the retained Taylor reference
    // on anti-Hermitian arguments spanning several scaling regimes
    // (norms below and well above theta_13).
    Rng rng(29);
    const int n = 7;
    for (double mag : {0.05, 1.0, 8.0, 40.0}) {
        CMatrix a(n, n);
        std::vector<CMatrix> bs(3, CMatrix(n, n));
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                a(r, c) = CMatrix::Scalar(0.0, mag * rng.nextGaussian());
                for (auto &b : bs)
                    b(r, c) = CMatrix::Scalar(
                        0.0, 0.2 * mag * rng.nextGaussian());
            }
        }
        ExpmFamilyWorkspace ws;
        CMatrix eA, eA_ref;
        std::vector<CMatrix> ds, ds_ref;
        expmFamilyInto(eA, ds, a, bs, ws);
        expmFamilyIntoTaylor(eA_ref, ds_ref, a, bs, ws);
        // Tolerance scales with the result magnitude: the derivative
        // blocks grow with |B| while e^A stays unitary-bounded.
        EXPECT_LE((eA - eA_ref).norm(), 1e-12 * (1.0 + eA_ref.norm()))
            << "mag " << mag;
        ASSERT_EQ(ds.size(), ds_ref.size());
        for (std::size_t k = 0; k < ds.size(); ++k)
            EXPECT_LE((ds[k] - ds_ref[k]).norm(),
                      1e-12 * (1.0 + ds_ref[k].norm()))
                << "mag " << mag << " direction " << k;
    }
}

TEST(HotpathGrape, OptimizedGradientMatchesNaive)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX0", dims);
    const TransmonSystem system(dims, 1);
    GrapeOptimizer grape(system, target, 40.0, 8);

    Rng rng(5);
    std::vector<std::vector<double>> controls(
        grape.numControls(),
        std::vector<double>(grape.segments(), 0.0));
    const double amp = 0.3 * system.maxAmplitude();
    for (auto &row : controls)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);

    GrapeWorkspace ws;
    std::vector<std::vector<double>> grad, grad_naive;
    double f1 = 0, l1 = 0, f2 = 0, l2 = 0;
    const double j1 =
        grape.objectiveAndGradient(controls, grad, f1, l1, ws);
    const double j2 =
        grape.objectiveAndGradientNaive(controls, grad_naive, f2, l2);

    EXPECT_NEAR(j1, j2, 1e-10);
    EXPECT_NEAR(f1, f2, 1e-10);
    EXPECT_NEAR(l1, l2, 1e-10);
    ASSERT_EQ(grad.size(), grad_naive.size());
    for (std::size_t k = 0; k < grad.size(); ++k) {
        ASSERT_EQ(grad[k].size(), grad_naive[k].size());
        for (std::size_t j = 0; j < grad[k].size(); ++j)
            EXPECT_NEAR(grad[k][j], grad_naive[k][j], 1e-10)
                << "control " << k << " segment " << j;
    }

    // Workspace reuse across different control values stays exact.
    for (auto &row : controls)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);
    grape.objectiveAndGradient(controls, grad, f1, l1, ws);
    grape.objectiveAndGradientNaive(controls, grad_naive, f2, l2);
    for (std::size_t k = 0; k < grad.size(); ++k)
        for (std::size_t j = 0; j < grad[k].size(); ++j)
            EXPECT_NEAR(grad[k][j], grad_naive[k][j], 1e-10);
}

TEST(HotpathLayout, CostVersionTracksOccupancyOnly)
{
    Layout layout(4, 4);
    const auto v0 = layout.costVersion();
    layout.place(0, makeSlot(0, 0));
    layout.place(1, makeSlot(1, 0));
    EXPECT_GT(layout.costVersion(), v0);

    // Occupied <-> occupied exchange: costs invariant, no bump.
    const auto v1 = layout.costVersion();
    layout.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    EXPECT_EQ(layout.costVersion(), v1);

    // Empty <-> empty: nothing moves, no bump.
    layout.swapSlots(makeSlot(2, 0), makeSlot(3, 0));
    EXPECT_EQ(layout.costVersion(), v1);

    // Occupied <-> empty changes occupancy: bump.
    layout.swapSlots(makeSlot(0, 0), makeSlot(2, 0));
    EXPECT_GT(layout.costVersion(), v1);

    const auto v2 = layout.costVersion();
    layout.remove(1);
    EXPECT_GT(layout.costVersion(), v2);
}

TEST(HotpathCache, FieldsMatchDirectComputation)
{
    const Topology topo = Topology::ring(6);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);

    Layout layout(6, 6);
    for (QubitId q = 0; q < 6; ++q)
        layout.place(q, makeSlot(q, 0));

    DistanceFieldCache cache(cost);
    for (SlotId s = 0; s < 4; ++s) {
        const auto direct = cost.routingDistances(s, layout);
        const auto &cached = cache.routing(s, layout);
        EXPECT_EQ(direct.dist, cached.dist) << "source " << s;
        EXPECT_EQ(direct.parent, cached.parent);
    }
    EXPECT_EQ(cache.misses(), 4u);

    // Routing-style swap: costs unchanged, fields served from cache.
    layout.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    cache.routing(0, layout);
    EXPECT_EQ(cache.hits(), 1u);

    // Occupancy change invalidates.
    layout.swapSlots(makeSlot(0, 0), makeSlot(0, 1));
    const auto direct = cost.routingDistances(0, layout);
    const auto &recomputed = cache.routing(0, layout);
    EXPECT_EQ(cache.misses(), 5u);
    EXPECT_EQ(direct.dist, recomputed.dist);
}

TEST(HotpathCache, PartialInvalidationRecomputesExactlyOnDependedChanges)
{
    // Interleave layout mutations with distance queries and count
    // recomputes (misses) via the cache counters: a field must be
    // recomputed exactly when a unit state it depends on changed.
    const Topology topo = Topology::ring(8);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);

    Layout layout(8, 8);
    layout.place(0, makeSlot(0, 0));
    layout.place(1, makeSlot(1, 0));
    layout.place(2, makeSlot(2, 0));

    DistanceFieldCache cache(cost);
    const SlotId src = makeSlot(0, 0);

    // Cold: one recompute.
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 1u);

    // Placement on an empty unit flips no encoded bit: the mapping
    // field revalidates instead of recomputing.
    layout.place(3, makeSlot(3, 0));
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.revalidations(), 1u);
    // And the follow-up query takes the O(1) stamped path.
    cache.mapping(src, layout);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.revalidations(), 1u);

    // Completing a pair flips unit 1's encoded bit: recompute, and
    // the recomputed field must match a direct computation.
    layout.place(4, makeSlot(1, 1));
    const auto direct = cost.mappingDistances(src, layout);
    const auto &refreshed = cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(direct.dist, refreshed.dist);

    // Routing fields depend on per-slot occupancy, so the same
    // empty-unit placement that mapping shrugged off is a routing
    // recompute...
    cache.routing(src, layout);
    EXPECT_EQ(cache.misses(), 3u);
    layout.place(5, makeSlot(5, 0));
    cache.mapping(src, layout); // encoded bits unchanged: revalidates
    EXPECT_EQ(cache.misses(), 3u);
    cache.routing(src, layout); // occupancy changed: recomputes
    EXPECT_EQ(cache.misses(), 4u);

    // ...while occupied <-> occupied routing SWAPs invalidate nothing.
    layout.swapSlots(makeSlot(1, 0), makeSlot(2, 0));
    const auto hits_before = cache.hits();
    cache.routing(src, layout);
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), hits_before + 2);

    // Intra-unit occupied <-> empty swap keeps the unit's occupancy
    // count (mapping-irrelevant) but moves which slot is occupied
    // (routing-relevant).
    layout.swapSlots(makeSlot(5, 0), makeSlot(5, 1));
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 4u);
    cache.routing(src, layout);
    EXPECT_EQ(cache.misses(), 5u);
}

TEST(HotpathCache, SurvivesDistinctLayoutInstances)
{
    // Progressive pairing and the exhaustive search remap from scratch
    // each round; a field cached against one Layout instance must be
    // reused by a different instance with the same relevant state and
    // never reused when the state differs.
    const Topology topo = Topology::ring(6);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);
    DistanceFieldCache cache(cost);

    Layout a(6, 6);
    a.place(0, makeSlot(0, 0));
    a.place(1, makeSlot(0, 1)); // unit 0 encoded
    a.place(2, makeSlot(2, 0));
    cache.mapping(0, a);
    EXPECT_EQ(cache.misses(), 1u);

    // Same encoded bits, different instance (and different placement
    // history): revalidation hit.
    Layout b(6, 6);
    b.place(3, makeSlot(0, 0));
    b.place(4, makeSlot(0, 1));
    b.place(5, makeSlot(4, 0)); // occupancy differs; encoding agrees
    cache.mapping(0, b);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.revalidations(), 1u);

    // Same instance id trap: a copy diverging from its original must
    // not serve the original's stamp. The copy gets a fresh id, so
    // the changed encoding is detected.
    Layout c = b;
    c.remove(4); // unit 0 no longer encoded
    const auto direct = cost.mappingDistances(0, c);
    const auto &recomputed = cache.mapping(0, c);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(direct.dist, recomputed.dist);
}

/**
 * Seeded random mutations against one long-lived cache: place, remove
 * and swapSlots steps (occupied and empty, across and within units)
 * on several independently built Layouts and on diverging copies of
 * them. After every step each field family, looked up from a small
 * set of sources so entries are revisited, must equal a fresh
 * CostModel computation, dist and parent bit for bit. Fresh layouts
 * share a costVersion by construction and copies share an epoch
 * history, so a stamp check that trusts the version alone, or epoch
 * skipping across instances, serves a stale field here.
 */
TEST(HotpathCache, SeededMutationsMatchFreshFields)
{
    const GateLibrary lib;
    Rng rng(4242);
    for (const Topology &topo :
         {Topology::ring(8), Topology::grid(9), Topology::heavyHex65()}) {
        const int units = topo.numUnits();
        const int slots = 2 * units;
        auto scaled = std::make_shared<DeviceCalibration>(
            DeviceCalibration::uniform(topo.name(), units, lib.t1Qubit(),
                                       lib.t1Ququart(), 0.01));
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
        const DeviceCalibration *cals[] = {nullptr, scaled.get()};
        for (const DeviceCalibration *cal : cals) {
            const std::string ctx =
                topo.name() + (cal ? " calibrated" : " uncalibrated");
            const ExpandedGraph xg(topo);
            const CostModel cost(xg, lib, 1.25, cal);
            DistanceFieldCache cache(cost);

            // Every fresh layout places all `qubits` qubits, so fresh
            // layouts start at the same costVersion.
            const int qubits = std::max(2, units);
            auto fresh = [&] {
                std::vector<SlotId> order(slots);
                for (SlotId s = 0; s < slots; ++s)
                    order[s] = s;
                rng.shuffle(order);
                Layout l(qubits, units);
                for (QubitId q = 0; q < qubits; ++q)
                    l.place(q, order[q]);
                return l;
            };
            std::vector<Layout> pool;
            for (int i = 0; i < 3; ++i)
                pool.push_back(fresh());

            for (int step = 0; step < 300; ++step) {
                Layout &l = pool[rng.nextUint(pool.size())];
                const int op = rng.nextInt(0, 5);
                if (op == 0) {
                    const QubitId q = rng.nextInt(0, qubits - 1);
                    const SlotId s = rng.nextInt(0, slots - 1);
                    if (l.isMapped(q))
                        l.remove(q);
                    else if (!l.occupied(s))
                        l.place(q, s);
                } else if (op == 1) {
                    const SlotId a = rng.nextInt(0, slots - 1);
                    const SlotId b = rng.nextBool()
                        ? rng.nextInt(0, slots - 1)
                        : makeSlot(slotUnit(a), 1 - slotPos(a));
                    l.swapSlots(a, b);
                } else if (op == 2) {
                    // A diverging copy (fresh instance id, inherited
                    // version and epochs), or a fresh layout.
                    Layout copy = rng.nextBool() ? Layout(l) : fresh();
                    if (pool.size() < 5)
                        pool.push_back(std::move(copy));
                    else
                        pool[rng.nextUint(pool.size())] = copy;
                }
                // Lookups may follow any step, including none.
                for (Layout &probe : pool) {
                    if (!rng.nextBool(0.6))
                        continue;
                    const SlotId src = rng.nextInt(0, 3);
                    const UnitId usrc = rng.nextInt(0, 1);
                    const auto &r = cache.routing(src, probe);
                    const auto r_ref = cost.routingDistances(src, probe);
                    ASSERT_EQ(r.dist, r_ref.dist) << ctx << " step " << step;
                    ASSERT_EQ(r.parent, r_ref.parent) << ctx;
                    const auto &m = cache.mapping(src, probe);
                    const auto m_ref = cost.mappingDistances(src, probe);
                    ASSERT_EQ(m.dist, m_ref.dist) << ctx << " step " << step;
                    ASSERT_EQ(m.parent, m_ref.parent) << ctx;
                    const auto &u = cache.unit(usrc, probe);
                    const auto u_ref = cost.unitDistances(usrc, probe);
                    ASSERT_EQ(u.dist, u_ref.dist) << ctx << " step " << step;
                    ASSERT_EQ(u.parent, u_ref.parent) << ctx;
                }
            }
            // All three lookup outcomes were exercised.
            EXPECT_GT(cache.hits() - cache.revalidations(), 0u) << ctx;
            EXPECT_GT(cache.revalidations(), 0u) << ctx;
            EXPECT_GT(cache.misses(), 0u) << ctx;
        }
    }
}

/** Route one circuit with the cache on and off (the direct-Dijkstra
 *  reference) and demand bit-identical output. */
void
expectSameRouting(const Circuit &circuit, const Topology &topo,
                  double lookahead, std::vector<Compression> pairs = {})
{
    const Circuit native = decomposeToNativeGates(circuit);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);
    const InteractionModel im(native);
    MapperOptions mopts;
    mopts.pairs = std::move(pairs);
    const Layout initial = mapCircuit(native, im, cost, mopts);

    auto route = [&](bool use_cache) {
        RouterOptions ropts;
        ropts.lookaheadWeight = lookahead;
        ropts.useDistanceCache = use_cache;
        Layout layout = initial;
        CompiledCircuit out(layout, "diff");
        routeCircuit(native, layout, cost, out, ropts);
        return out;
    };
    EXPECT_EQ(bench::artifactDiff(route(true), route(false)), "")
        << circuit.name() << " / " << topo.name();
}

TEST(HotpathRouter, CachedRoutingIdenticalOnRing)
{
    expectSameRouting(bernsteinVazirani(8), Topology::ring(8), 0.0);
    expectSameRouting(bernsteinVazirani(8), Topology::ring(8), 0.5);
    expectSameRouting(qaoaFromGraph(randomGraph(8, 0.4)), Topology::ring(8), 0.5);
}

TEST(HotpathRouter, CachedRoutingIdenticalOnGrid)
{
    expectSameRouting(bernsteinVazirani(9), Topology::grid(9), 0.0);
    expectSameRouting(bernsteinVazirani(9), Topology::grid(9), 0.5);
    expectSameRouting(qaoaFromGraph(randomGraph(9, 0.4)), Topology::grid(9), 0.5);
}

TEST(HotpathRouter, CachedRoutingIdenticalOnHeavyHexWithAwePairs)
{
    // Committed AWE pairs make placement flip encoded bits, the regime
    // where partial invalidation does the most work.
    const Circuit qaoa = decomposeToNativeGates(qaoaHeavyHex(40, 1));
    const Topology topo = Topology::heavyHex65();
    const auto pairs =
        AweStrategy().choosePairs(qaoa, topo, GateLibrary{}, {});
    ASSERT_FALSE(pairs.empty());
    expectSameRouting(qaoa, topo, 0.5, pairs);
}

} // namespace
} // namespace qompress
