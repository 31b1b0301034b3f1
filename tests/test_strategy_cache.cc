/**
 * @file
 * Context reuse never changes what a compile emits: every strategy ×
 * circuit compile run through one long-lived CompileContext (whose
 * distance-field cache carries the fields of every earlier compile)
 * must be bit-identical to the same compile on a fresh context. The
 * sequence runs forward and then reversed on the same context, so each
 * compile meets two different cache histories. The field-level
 * counterpart is HotpathCache.SeededMutationsMatchFreshFields.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

const GateLibrary kLib;

/** Strategies cheap enough to run on every topology; the exhaustive
 *  strategies recompile O(n^2) candidates per committed pair and run
 *  on the small cases only. */
const std::vector<std::string> kStrategies = {
    "qubit_only", "fq", "eqm", "rb", "awe", "pp", "portfolio",
};

void
expectReuseInvariant(const Topology &topo,
                     const std::vector<std::string> &strategies,
                     const std::vector<Circuit> &circuits,
                     const CompilerConfig &cfg)
{
    struct Case
    {
        const std::string *strategy;
        const Circuit *circuit;
    };
    std::vector<Case> cases;
    for (const auto &circuit : circuits) {
        for (const auto &name : strategies)
            cases.push_back({&name, &circuit});
    }
    std::vector<CompileResult> fresh;
    for (const Case &c : cases) {
        fresh.push_back(
            makeStrategy(*c.strategy)->compile(*c.circuit, topo, kLib, cfg));
    }

    CompileContext shared(topo, kLib, cfg);
    std::vector<std::size_t> order(cases.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (const bool reversed : {false, true}) {
        if (reversed)
            std::reverse(order.begin(), order.end());
        for (std::size_t i : order) {
            const Case &c = cases[i];
            const CompileResult reused = makeStrategy(*c.strategy)->compile(
                *c.circuit, topo, kLib, cfg, &shared);
            EXPECT_EQ(bench::artifactDiff(reused, fresh[i]), "")
                << *c.strategy << " / " << c.circuit->name() << " / "
                << topo.name() << (reversed ? " (reversed)" : "");
        }
    }
    // The shared context really was reused: later compiles drew on
    // fields earlier ones left behind.
    EXPECT_GT(shared.cacheStats().revalidations(), 0u) << topo.name();
}

CompilerConfig
lookahead(double weight)
{
    CompilerConfig cfg;
    cfg.lookaheadWeight = weight;
    cfg.threads = 1;
    return cfg;
}

TEST(ContextReuse, LongLivedContextMatchesFreshContexts)
{
    expectReuseInvariant(Topology::ring(12), kStrategies,
                         {qaoaFromGraph(randomGraph(8, 0.4, 3)),
                          qaoaFromGraph(randomGraph(10, 0.4, 17)),
                          bernsteinVazirani(8)},
                         lookahead(0.5));
    expectReuseInvariant(Topology::grid(12), kStrategies,
                         {qaoaFromGraph(randomGraph(10, 0.4, 5)),
                          qaoaFromGraph(randomGraph(12, 0.4, 23)),
                          bernsteinVazirani(10)},
                         lookahead(0.5));
    expectReuseInvariant(Topology::heavyHex65(), kStrategies,
                         {qaoaFromGraph(randomGraph(16, 0.3, 7)),
                          qaoaHeavyHex(16)},
                         lookahead(0.5));
}

TEST(ContextReuse, LookaheadOffAndExhaustive)
{
    // Lookahead 0 takes a different field-fetch path in the router.
    expectReuseInvariant(Topology::grid(9), kStrategies,
                         {qaoaFromGraph(randomGraph(9, 0.4, 41)),
                          bernsteinVazirani(9)},
                         lookahead(0.0));
    expectReuseInvariant(Topology::grid(6), {"ec", "ec_unordered"},
                         {bernsteinVazirani(6),
                          qaoaFromGraph(randomGraph(6, 0.5, 13))},
                         lookahead(0.5));
}

} // namespace
} // namespace qompress
