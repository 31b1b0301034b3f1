#include "strategies/portfolio.hh"

#include <exception>
#include <memory>
#include <optional>

#include "common/error.hh"
#include "common/thread_pool.hh"

namespace qompress {

PortfolioStrategy::PortfolioStrategy(std::vector<std::string> names)
    : names_(std::move(names))
{
    QFATAL_IF(names_.empty(), "portfolio needs at least one member");
}

CompileResult
PortfolioStrategy::compile(const Circuit &circuit, const Topology &topo,
                           const GateLibrary &lib,
                           const CompilerConfig &cfg,
                           CompileContext *ctx) const
{
    // Member fan-out: cfg.threads lanes (0 = the process default).
    // Lane 0 reuses the caller's context; other lanes lazily build
    // their own (the cache is single-writer state). Calls already
    // running on a pool worker stay serial (forRequest returns
    // nullptr there).
    std::optional<ThreadPool> own_pool;
    ThreadPool *pool = ThreadPool::forRequest(cfg.threads, own_pool);
    std::vector<std::unique_ptr<CompileContext>> lane_ctx(
        pool ? pool->numThreads() : 1);
    auto ctx_of_lane = [&](int lane) -> CompileContext * {
        if (lane == 0 && ctx)
            return ctx;
        if (!lane_ctx[lane])
            lane_ctx[lane] =
                std::make_unique<CompileContext>(topo, lib, cfg);
        return lane_ctx[lane].get();
    };

    // Each member fills its own slot, so the reduction below never
    // depends on lane timing.
    std::vector<std::optional<CompileResult>> results(names_.size());
    std::vector<std::exception_ptr> errors(names_.size());
    auto compile_member = [&](std::size_t i, int lane) {
        try {
            results[i] = makeStrategy(names_[i])->compile(
                circuit, topo, lib, cfg, ctx_of_lane(lane));
        } catch (const FatalError &) {
            // A member may not fit (e.g. qubit-only over capacity);
            // the portfolio simply skips it.
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    if (pool) {
        pool->parallelFor(0, names_.size(), compile_member);
    } else {
        for (std::size_t i = 0; i < names_.size(); ++i)
            compile_member(i, 0);
    }

    // Deterministic serial reduction in member order with a strict
    // ">": ties keep the earliest member, the first other error in
    // member order propagates, and lastWinner_ is written exactly
    // once, by this (the calling) thread, after the join.
    std::size_t winner = names_.size();
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
        if (!results[i])
            continue;
        if (winner == names_.size() ||
            results[i]->metrics.totalEps > results[winner]->metrics.totalEps)
            winner = i;
    }
    QFATAL_IF(winner == names_.size(), "no portfolio member could compile '",
              circuit.name(), "' on ", topo.name());
    lastWinner_ = names_[winner];
    return std::move(*results[winner]);
}

} // namespace qompress
