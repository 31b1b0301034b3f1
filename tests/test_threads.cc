/**
 * @file
 * Determinism suite for the thread-pool layer (ctest label "threads"):
 *
 *  - ThreadPool contract: full index coverage, stable lane ids,
 *    first-exception propagation, reuse after failure, nested-call
 *    inlining.
 *  - Exhaustive strategy: 1, 2, and 8 lanes produce bit-identical
 *    compiled circuits to the serial search on ring, grid, and
 *    heavy-hex topologies over seeded circuits.
 *  - Sharded Statevector::applyUnitary: amplitudes match the serial
 *    kernels exactly (==, not a tolerance) both above and below the
 *    sharding threshold, and match the naive reference to 1e-12.
 *  - Eval sweep: runSweep records are bit-identical at 1/2/8 lanes,
 *    on default grid devices and on heavyHex65.
 *  - Portfolio: winner, lastWinner(), and the full compiled result
 *    are identical at 1/2/8 lanes on ring, grid, and heavy-hex.
 *  - GRAPE: objective, fidelity, leakage, and every gradient entry
 *    are bit-identical at 1/2/8 lanes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "common/thread_pool.hh"
#include "eval/sweep.hh"
#include "pulse/grape.hh"
#include "pulse/targets.hh"
#include "strategies/portfolio.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

// ------------------------------------------------------------- pool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    ASSERT_EQ(pool.numThreads(), 4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<bool> lane_ok{true};
    pool.parallelFor(0, kN, [&](std::size_t i, int lane) {
        if (lane < 0 || lane >= 4)
            lane_ok = false;
        hits[i].fetch_add(1);
    });
    EXPECT_TRUE(lane_ok);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SubmitDeliversResultsAndExceptions)
{
    ThreadPool pool(3);
    auto ok = pool.submit([] { return 42; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 42);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesFirstExceptionAndSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [](std::size_t i, int) {
                             if (i == 37)
                                 throw std::runtime_error("index 37");
                         }),
        std::runtime_error);

    // The pool must stay fully usable after a failed sweep.
    std::atomic<int> sum{0};
    pool.parallelFor(0, 10, [&](std::size_t i, int) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(0, 8, [&](std::size_t, int) {
        // From a lane, a nested sweep must run inline (lane 0) rather
        // than deadlocking on the same pool.
        pool.parallelFor(0, 4, [&](std::size_t, int lane) {
            EXPECT_EQ(lane, 0);
            total.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SingleLanePoolRunsEverythingInline)
{
    ThreadPool pool(1);
    int count = 0; // deliberately unsynchronized: must stay caller-only
    pool.parallelFor(0, 100, [&](std::size_t, int lane) {
        EXPECT_EQ(lane, 0);
        ++count;
    });
    EXPECT_EQ(count, 100);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

// ---------------------------------------------- exhaustive determinism

/** Serial (threads=1) vs 2- and 8-lane exhaustive compiles. */
void
expectLaneCountInvariant(const Circuit &circuit, const Topology &topo)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    cfg.threads = 1;
    const CompileResult serial =
        makeStrategy("ec")->compile(circuit, topo, lib, cfg);
    for (int lanes : {2, 8}) {
        cfg.threads = lanes;
        const CompileResult pooled =
            makeStrategy("ec")->compile(circuit, topo, lib, cfg);
        EXPECT_EQ(bench::artifactDiff(serial, pooled), "")
            << circuit.name() << " / " << topo.name() << " / " << lanes
            << " lanes";
    }
}

TEST(ExhaustiveDeterminism, RingSeeds)
{
    const Topology topo = Topology::ring(8);
    expectLaneCountInvariant(bernsteinVazirani(6), topo);
    expectLaneCountInvariant(qaoaFromGraph(randomGraph(6, 0.5, 3)), topo);
}

TEST(ExhaustiveDeterminism, GridSeeds)
{
    const Topology topo = Topology::grid(6);
    expectLaneCountInvariant(bernsteinVazirani(6), topo);
    expectLaneCountInvariant(qaoaFromGraph(randomGraph(6, 0.5, 13)), topo);
}

TEST(ExhaustiveDeterminism, HeavyHex65Seeds)
{
    const Topology topo = Topology::heavyHex65();
    expectLaneCountInvariant(qaoaFromGraph(randomGraph(6, 0.4, 7)), topo);
}

TEST(ExhaustiveDeterminism, UnorderedVariantToo)
{
    const GateLibrary lib;
    const Circuit bv = bernsteinVazirani(6);
    const Topology topo = Topology::grid(6);
    CompilerConfig cfg;
    cfg.threads = 1;
    const CompileResult serial =
        makeStrategy("ec_unordered")->compile(bv, topo, lib, cfg);
    cfg.threads = 4;
    const CompileResult pooled =
        makeStrategy("ec_unordered")->compile(bv, topo, lib, cfg);
    EXPECT_EQ(bench::artifactDiff(serial, pooled), "")
        << "ec_unordered / grid6";
}

// ------------------------------------------------ sweep determinism

void
expectIdenticalRecords(const std::vector<SweepRecord> &a,
                       const std::vector<SweepRecord> &b,
                       const std::string &ctx)
{
    ASSERT_EQ(a.size(), b.size()) << ctx;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const SweepRecord &x = a[i];
        const SweepRecord &y = b[i];
        EXPECT_EQ(x.family, y.family) << ctx << " record " << i;
        EXPECT_EQ(x.strategy, y.strategy) << ctx << " record " << i;
        EXPECT_EQ(x.requestedSize, y.requestedSize)
            << ctx << " record " << i;
        EXPECT_EQ(x.qubits, y.qubits) << ctx << " record " << i;
        EXPECT_EQ(x.numCompressions, y.numCompressions)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.gateEps, y.metrics.gateEps)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.coherenceEps, y.metrics.coherenceEps)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.totalEps, y.metrics.totalEps)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.durationNs, y.metrics.durationNs)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.numGates, y.metrics.numGates)
            << ctx << " record " << i;
    }
}

void
expectSweepLaneInvariant(SweepSpec spec, const std::string &ctx)
{
    spec.threads = 1;
    const auto serial = runSweep(spec);
    ASSERT_FALSE(serial.empty()) << ctx;
    for (int lanes : {2, 8}) {
        spec.threads = lanes;
        expectIdenticalRecords(serial, runSweep(spec),
                               ctx + " / " + std::to_string(lanes) +
                                   " lanes");
    }
}

TEST(SweepDeterminism, GridDevices)
{
    SweepSpec spec;
    spec.families = {"bv", "qaoa_random"};
    spec.sizes = {6, 9};
    spec.strategies = {"qubit_only", "eqm", "rb", "awe", "pp"};
    spec.config.lookaheadWeight = 0.5;
    expectSweepLaneInvariant(spec, "grid sweep");
}

TEST(SweepDeterminism, RingDevices)
{
    SweepSpec spec;
    spec.families = {"bv"};
    spec.sizes = {6, 8};
    spec.strategies = {"qubit_only", "awe", "pp", "ec"};
    spec.device = [](const Circuit &c) {
        return Topology::ring(c.numQubits());
    };
    expectSweepLaneInvariant(spec, "ring sweep");
}

TEST(SweepDeterminism, HeavyHex65Devices)
{
    SweepSpec spec;
    spec.families = {"qaoa_random"};
    spec.sizes = {8};
    // "ec" nests the exhaustive fan-out inside sweep workers and
    // "portfolio" nests member fan-out: both must degrade to inline
    // execution and stay bit-identical.
    spec.strategies = {"qubit_only", "awe", "pp", "portfolio"};
    spec.device = [](const Circuit &) {
        return Topology::heavyHex65();
    };
    expectSweepLaneInvariant(spec, "heavyHex65 sweep");
}

TEST(SweepDeterminism, NonFittingCellsStayInvariant)
{
    // Over-capacity members record qubits = 0; the slot layout must
    // be stable across lane counts even with failing cells mixed in.
    SweepSpec spec;
    spec.families = {"cuccaro"};
    spec.sizes = {12};
    spec.strategies = {"qubit_only", "eqm"};
    spec.device = [](const Circuit &c) {
        return Topology::grid((c.numQubits() + 1) / 2);
    };
    expectSweepLaneInvariant(spec, "non-fitting sweep");
}

// --------------------------------------------- portfolio determinism

void
expectPortfolioLaneInvariant(const Circuit &circuit,
                             const Topology &topo)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    const PortfolioStrategy portfolio;
    cfg.threads = 1;
    const CompileResult serial =
        portfolio.compile(circuit, topo, lib, cfg);
    const std::string serial_winner = portfolio.lastWinner();
    EXPECT_FALSE(serial_winner.empty());

    for (int lanes : {2, 8}) {
        cfg.threads = lanes;
        const CompileResult pooled =
            portfolio.compile(circuit, topo, lib, cfg);
        const std::string ctx = circuit.name() + " / " + topo.name() +
                                " / " + std::to_string(lanes) +
                                " lanes";
        EXPECT_EQ(portfolio.lastWinner(), serial_winner) << ctx;
        EXPECT_EQ(bench::artifactDiff(serial, pooled), "") << ctx;
    }
}

TEST(PortfolioDeterminism, Ring)
{
    expectPortfolioLaneInvariant(bernsteinVazirani(6),
                                 Topology::ring(8));
}

TEST(PortfolioDeterminism, Grid)
{
    expectPortfolioLaneInvariant(
        qaoaFromGraph(randomGraph(6, 0.5, 21)), Topology::grid(6));
}

TEST(PortfolioDeterminism, HeavyHex65)
{
    expectPortfolioLaneInvariant(
        qaoaFromGraph(randomGraph(6, 0.4, 9)), Topology::heavyHex65());
}

TEST(PortfolioDeterminism, SkipsOverCapacityMembersAtAnyLaneCount)
{
    // 8 qubits on 4 units: qubit_only cannot fit; the skip (and the
    // winner among the rest) must be lane-count-invariant.
    expectPortfolioLaneInvariant(bernsteinVazirani(8),
                                 Topology::grid(4));
}

// ------------------------------------------------- GRAPE determinism

TEST(GrapeDeterminism, GradientBitIdenticalAcrossLaneCounts)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);

    std::vector<std::vector<double>> controls;
    std::vector<std::vector<double>> grad_serial, grad;
    double j_serial = 0.0, f_serial = 0.0, l_serial = 0.0;
    {
        GrapeOptions opts;
        opts.threads = 1;
        GrapeOptimizer grape(system, target, 80.0, 16, opts);
        Rng rng(41);
        controls.assign(grape.numControls(),
                        std::vector<double>(grape.segments(), 0.0));
        const double amp = 0.3 * system.maxAmplitude();
        for (auto &row : controls)
            for (auto &v : row)
                v = rng.nextDouble(-amp, amp);
        GrapeWorkspace ws;
        j_serial = grape.objectiveAndGradient(controls, grad_serial,
                                              f_serial, l_serial, ws);
    }

    for (int lanes : {2, 8}) {
        GrapeOptions opts;
        opts.threads = lanes;
        GrapeOptimizer grape(system, target, 80.0, 16, opts);
        GrapeWorkspace ws;
        double fid = 0.0, leak = 0.0;
        // Two calls: the second exercises the fully warm path, which
        // must agree just as exactly.
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        const double j =
            grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        EXPECT_EQ(j, j_serial) << lanes << " lanes";
        EXPECT_EQ(fid, f_serial) << lanes << " lanes";
        EXPECT_EQ(leak, l_serial) << lanes << " lanes";
        ASSERT_EQ(grad.size(), grad_serial.size()) << lanes;
        for (std::size_t k = 0; k < grad.size(); ++k) {
            ASSERT_EQ(grad[k].size(), grad_serial[k].size());
            for (std::size_t s = 0; s < grad[k].size(); ++s)
                EXPECT_EQ(grad[k][s], grad_serial[k][s])
                    << lanes << " lanes, control " << k << " segment "
                    << s;
        }
    }
}

TEST(GrapeDeterminism, RunConvergesIdenticallyPooled)
{
    // A short end-to-end run (Adam steps on top of the pooled
    // gradient) must trace the identical optimization path.
    std::vector<int> dims;
    const CMatrix target = namedTarget("X", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);
    GrapeOptions opts;
    opts.maxIterations = 8;
    opts.threads = 1;
    const GrapeResult serial =
        GrapeOptimizer(system, target, 24.0, 12, opts).run();
    opts.threads = 4;
    const GrapeResult pooled =
        GrapeOptimizer(system, target, 24.0, 12, opts).run();
    EXPECT_EQ(serial.fidelity, pooled.fidelity);
    EXPECT_EQ(serial.leakage, pooled.leakage);
    EXPECT_EQ(serial.iterations, pooled.iterations);
    ASSERT_EQ(serial.controls.size(), pooled.controls.size());
    for (std::size_t k = 0; k < serial.controls.size(); ++k)
        EXPECT_EQ(serial.controls[k], pooled.controls[k]);
}

// ------------------------------------------------- sharded statevector

/** RAII restore of the process-wide sharding knobs. */
struct ShardKnobs
{
    std::size_t saved = MixedRadixState::shardThreshold();
    ~ShardKnobs()
    {
        MixedRadixState::setShardThreshold(saved);
        MixedRadixState::setShardPool(nullptr);
    }
};

/** Apply a mixed 1-/2-/3-qudit workload to copies of one random state
 *  with sharding forced on vs off; demand exact amplitude identity. */
void
expectShardedMatchesSerial(const std::vector<int> &dims, ThreadPool &pool)
{
    Rng rng(2024);
    MixedRadixState init = bench::randomState(dims, rng);

    auto gates = bench::mixedGateWorkload(dims, rng);
    // A three-qudit gate exercises the general gather/scatter kernel.
    const std::size_t k3 =
        static_cast<std::size_t>(dims[0]) * dims[1] * dims[2];
    gates.push_back({{0, 1, 2}, bench::randomUnitary(k3, rng)});

    ShardKnobs restore;
    MixedRadixState::setShardPool(&pool);

    MixedRadixState sharded = init;
    MixedRadixState::setShardThreshold(1); // every call shards
    for (const auto &g : gates)
        sharded.applyUnitary(g.units, g.u);

    MixedRadixState serial = init;
    MixedRadixState::setShardThreshold(~std::size_t(0)); // never shards
    for (const auto &g : gates)
        serial.applyUnitary(g.units, g.u);

    MixedRadixState naive = init;
    for (const auto &g : gates)
        naive.applyUnitaryNaive(g.units, g.u);

    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t i = 0; i < sharded.size(); ++i) {
        EXPECT_EQ(sharded.amp(i).real(), serial.amp(i).real()) << i;
        EXPECT_EQ(sharded.amp(i).imag(), serial.amp(i).imag()) << i;
    }
    EXPECT_LE(bench::maxAmpDiff(sharded, naive), 1e-12);
}

TEST(ShardedStatevector, MatchesSerialAboveThreshold)
{
    ThreadPool pool(4);
    // 4*2*4*2*4*2*2*2 = 2048 amplitudes: comfortably above the forced
    // threshold of 1, sharded on every gate.
    expectShardedMatchesSerial({4, 2, 4, 2, 4, 2, 2, 2}, pool);
}

TEST(ShardedStatevector, MatchesSerialOnSmallStates)
{
    ThreadPool pool(8);
    // 4*2*2 = 16 amplitudes: block counts fall below lanes*4 for the
    // larger gates, exercising the serial fallback inside the
    // threshold-on path.
    expectShardedMatchesSerial({4, 2, 2}, pool);
}

TEST(ShardedStatevector, DefaultThresholdKeepsTypicalStatesSerial)
{
    // The default threshold (2^18) must leave the 10-qudit workloads
    // used across the test suite on the serial kernels.
    EXPECT_EQ(MixedRadixState::shardThreshold(), std::size_t(1) << 18);
    std::size_t amps = 1;
    for (int d : {4, 2, 4, 2, 4, 2, 4, 2, 4, 2})
        amps *= static_cast<std::size_t>(d);
    EXPECT_LT(amps, MixedRadixState::shardThreshold());
}

} // namespace
} // namespace qompress
