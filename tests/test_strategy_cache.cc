/**
 * @file
 * Randomized differential harness for the partial-invalidation
 * distance-field cache: every compression strategy, on every topology
 * class (ring, grid, heavy-hex), over seeded random/QAOA circuits,
 * must produce bit-identical compilations with the cache on and off.
 * This is the safety net for threading one mutation-aware cache
 * through mapping, routing, and the strategies themselves.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "ir/passes.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

const GateLibrary kLib;

/** Strategies exercised on every topology/circuit combination. */
const std::vector<std::string> kStrategies = {
    "qubit_only", "eqm", "rb", "awe", "pp", "fq",
};

/** Compile with the shared cache on and off and demand identity. */
void
expectCacheInvariant(const std::string &strategy, const Circuit &circuit,
                     const Topology &topo, double lookahead = 0.5)
{
    const std::string ctx =
        strategy + " / " + circuit.name() + " / " + topo.name();
    CompilerConfig cfg;
    cfg.lookaheadWeight = lookahead;

    cfg.useDistanceCache = true;
    const CompileResult cached =
        makeStrategy(strategy)->compile(circuit, topo, kLib, cfg);

    cfg.useDistanceCache = false;
    const CompileResult uncached =
        makeStrategy(strategy)->compile(circuit, topo, kLib, cfg);

    EXPECT_EQ(bench::artifactDiff(cached, uncached), "") << ctx;
}

TEST(StrategyCache, AllStrategiesIdenticalOnRing)
{
    const Topology topo = Topology::ring(12);
    for (const auto &name : kStrategies) {
        for (std::uint64_t seed : {3u, 17u}) {
            expectCacheInvariant(
                name, qaoaFromGraph(randomGraph(8, 0.4, seed)), topo);
        }
        expectCacheInvariant(name, bernsteinVazirani(8), topo);
    }
}

TEST(StrategyCache, AllStrategiesIdenticalOnGrid)
{
    const Topology topo = Topology::grid(12);
    for (const auto &name : kStrategies) {
        for (std::uint64_t seed : {5u, 23u}) {
            expectCacheInvariant(
                name, qaoaFromGraph(randomGraph(10, 0.4, seed)), topo);
        }
        expectCacheInvariant(name, bernsteinVazirani(10), topo);
    }
}

TEST(StrategyCache, AllStrategiesIdenticalOnHeavyHex)
{
    const Topology topo = Topology::heavyHex65();
    for (const auto &name : kStrategies) {
        expectCacheInvariant(
            name, qaoaFromGraph(randomGraph(16, 0.3, 7)), topo);
        // The deep hardware-native workload itself.
        expectCacheInvariant(name, qaoaHeavyHex(16), topo);
    }
}

TEST(StrategyCache, ExhaustiveIdenticalOnSmallCircuits)
{
    // ec recompiles n^2 candidates per committed pair; keep it small
    // but cover both the shared-context candidate loop and the final
    // compile.
    expectCacheInvariant("ec", bernsteinVazirani(6), Topology::grid(6));
    expectCacheInvariant(
        "ec", qaoaFromGraph(randomGraph(6, 0.5, 13)), Topology::grid(6));
}

TEST(StrategyCache, LookaheadOffAlsoIdentical)
{
    // lookahead 0 takes a different field-fetch path in the router.
    const Topology topo = Topology::grid(9);
    for (const auto &name : kStrategies) {
        expectCacheInvariant(
            name, qaoaFromGraph(randomGraph(9, 0.4, 41)), topo,
            /*lookahead=*/0.0);
    }
}

} // namespace
} // namespace qompress
