/**
 * @file
 * Portfolio compilation: run several strategies and keep the best
 * result by total EPS. The paper evaluates strategies side by side;
 * a deployment would simply take the winner, which this class
 * packages behind the common interface.
 *
 * The members fan out over cfg.threads lanes of the thread pool, one
 * CompileContext per lane (lane 0 reuses the caller's), the same way
 * the exhaustive strategy scores its candidates. The winner is chosen
 * by a serial reduction in member order with a strict comparison, so
 * the winner (and lastWinner()) is identical at every lane count.
 * Compiles already running on a pool worker (a service lane, a sweep
 * cell) run their members serially.
 */

#ifndef QOMPRESS_STRATEGIES_PORTFOLIO_HH
#define QOMPRESS_STRATEGIES_PORTFOLIO_HH

#include "strategies/strategy.hh"

namespace qompress {

/** See file comment. */
class PortfolioStrategy : public CompressionStrategy
{
  public:
    /** @param names member strategies; defaults to the paper's set
     *  minus the deliberately-bad FQ baseline. */
    explicit PortfolioStrategy(
        std::vector<std::string> names = {"qubit_only", "eqm", "rb",
                                          "awe", "pp"});

    std::string name() const override { return "portfolio"; }

    using CompressionStrategy::compile;
    CompileResult compile(const Circuit &circuit, const Topology &topo,
                          const GateLibrary &lib,
                          const CompilerConfig &cfg,
                          CompileContext *ctx) const override;

    /** Name of the member that won the last compile() call. Written
     *  once per compile by the calling thread (after the parallel
     *  members join), so it is race-free at any lane count; like the
     *  rest of the class it is not synchronized against *concurrent
     *  compile() calls on the same instance*. */
    const std::string &lastWinner() const { return lastWinner_; }

  private:
    std::vector<std::string> names_;
    mutable std::string lastWinner_;
};

} // namespace qompress

#endif // QOMPRESS_STRATEGIES_PORTFOLIO_HH
