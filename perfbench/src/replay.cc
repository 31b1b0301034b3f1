#include "replay.hh"

#include "compiler/mapper.hh"
#include "compiler/metrics.hh"
#include "compiler/router.hh"
#include "compiler/scheduler.hh"
#include "ir/interaction.hh"
#include "ir/passes.hh"
#include "ir/serialize.hh"
#include "strategies/strategy.hh"

namespace perfbench {

using namespace qompress;

StageReplay::Context &
StageReplay::contextFor(const std::string &device)
{
    auto &slot = contexts_[device];
    if (!slot) {
        slot = std::make_unique<Context>(devices_.get(device));
        slot->config.calibration = slot->device.calibration;
        slot->config.threads = 1;
        slot->ctx = std::make_unique<CompileContext>(
            slot->device.topology, slot->library, slot->config);
    }
    return *slot;
}

void
StageReplay::dropContext(const std::string &device)
{
    contexts_.erase(device);
}

std::vector<std::uint8_t>
StageReplay::run(const Circuit &circuit, const std::string &device,
                 const std::string &strategy_name, Tracer &tracer,
                 std::uint64_t request, CacheDelta &cache)
{
    Context &c = contextFor(device);
    const Topology &topo = c.device.topology;
    const CompilerConfig &cfg = c.config;
    CompileContext &ctx = *c.ctx;
    const auto strategy = makeStrategy(strategy_name);
    const DistanceFieldCache &dfc = ctx.cacheStats();
    const CacheDelta before{dfc.hits(), dfc.misses(), dfc.revalidations()};

    const std::uint32_t root =
        tracer.begin("replay", Span::kNoParent, request);
    auto stage = [&](const char *name, auto &&fn) {
        return tracer.scoped(name, root, request, fn);
    };

    // CompressionStrategy::compile, then compileWithPairs, stage by stage.
    const Circuit native = stage("ir.decompose", [&] {
        return isNative(circuit) ? circuit : decomposeToNativeGates(circuit);
    });
    const InteractionModel im = stage(
        "compiler.interaction", [&] { return InteractionModel(native); });
    MapperOptions mopts;
    mopts.allowDynamicSlot1 = strategy->allowDynamicSlot1();
    mopts.pairs = stage("strategies.choose_pairs", [&] {
        return strategy->choosePairs(native, topo, c.library, cfg, ctx);
    });
    Layout layout = stage("compiler.map", [&] {
        return mapCircuit(native, im, ctx.cost(), mopts, ctx.cache());
    });

    CompileResult result;
    result.compressions = encodedPairsOf(layout);
    result.compiled = CompiledCircuit(layout, native.name());
    if (cfg.chargeInitialEnc) {
        for (UnitId u = 0; u < layout.numUnits(); ++u) {
            if (!layout.unitEncoded(u))
                continue;
            PhysGate enc;
            enc.cls = PhysGateClass::Encode;
            enc.slots = {makeSlot(u, 0), makeSlot(u, 1)};
            enc.logical = GateType::Swap;
            enc.isRouting = false;
            result.compiled.add(enc);
        }
    }
    RouterOptions ropts;
    ropts.lookaheadWeight = cfg.lookaheadWeight;
    ropts.useDistanceCache = ctx.cache() != nullptr;
    stage("compiler.route", [&] {
        routeCircuit(native, layout, ctx.cost(), result.compiled, ropts,
                     ctx.cache());
    });
    stage("compiler.schedule", [&] {
        scheduleCompiled(result.compiled, c.library, cfg.calibration.get());
    });
    if (cfg.validate)
        stage("compiler.validate",
              [&] { validateCompiled(result.compiled, topo); });
    result.metrics = stage("compiler.metrics", [&] {
        return computeMetrics(result.compiled, c.library,
                              cfg.calibration.get());
    });
    auto bytes =
        stage("ir.encode", [&] { return encodeCompileResult(result); });
    tracer.end(root);

    cache.hits = dfc.hits() - before.hits;
    cache.misses = dfc.misses() - before.misses;
    cache.revalidations = dfc.revalidations() - before.revalidations;
    return bytes;
}

} // namespace perfbench
