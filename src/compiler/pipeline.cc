#include "compiler/pipeline.hh"

#include <optional>

#include "common/error.hh"
#include "ir/passes.hh"

namespace qompress {

CompileContext::CompileContext(const Topology &topo, const GateLibrary &lib,
                               const CompilerConfig &cfg)
    : xg_(topo), cal_(cfg.calibration),
      cost_(xg_, lib, cfg.throughQuquartPenalty, cal_.get()),
      cache_(cost_)
{
}

std::vector<Compression>
encodedPairsOf(const Layout &layout)
{
    std::vector<Compression> pairs;
    for (UnitId u = 0; u < layout.numUnits(); ++u) {
        if (layout.unitEncoded(u)) {
            pairs.push_back({layout.qubitAt(makeSlot(u, 0)),
                             layout.qubitAt(makeSlot(u, 1))});
        }
    }
    return pairs;
}

CompileResult
beginCompile(const Layout &layout, const std::string &name,
             const CompilerConfig &cfg)
{
    CompileResult result;
    result.compressions = encodedPairsOf(layout);
    result.compiled = CompiledCircuit(layout, name);
    if (cfg.chargeInitialEnc) {
        for (UnitId u = 0; u < layout.numUnits(); ++u) {
            if (!layout.unitEncoded(u))
                continue;
            PhysGate enc;
            enc.cls = PhysGateClass::Encode;
            enc.slots = {makeSlot(u, 0), makeSlot(u, 1)};
            enc.logical = GateType::Swap; // no logical counterpart
            result.compiled.add(enc);
        }
    }
    return result;
}

void
finishCompile(CompileResult &result, const Topology &topo,
              const GateLibrary &lib, const CompilerConfig &cfg)
{
    scheduleCompiled(result.compiled, lib, cfg.calibration.get());
    if (cfg.validate)
        validateCompiled(result.compiled, topo);
    result.metrics =
        computeMetrics(result.compiled, lib, cfg.calibration.get());
}

CompileResult
compileWithPairs(const Circuit &circuit, const Topology &topo,
                 const GateLibrary &lib,
                 const std::vector<Compression> &pairs,
                 bool allow_dynamic_slot1, const CompilerConfig &cfg,
                 CompileContext *ctx)
{
    const Circuit native = isNative(circuit)
        ? circuit : decomposeToNativeGates(circuit);

    const InteractionModel im(native);
    std::optional<CompileContext> local;
    if (!ctx) {
        local.emplace(topo, lib, cfg);
        ctx = &*local;
    }
    const CostModel &cost = ctx->cost();
    DistanceFieldCache *cache = ctx->cache();

    MapperOptions mopts;
    mopts.allowDynamicSlot1 = allow_dynamic_slot1;
    mopts.pairs = pairs;
    Layout layout = mapCircuit(native, im, cost, mopts, cache);

    CompileResult result = beginCompile(layout, native.name(), cfg);

    RouterOptions ropts;
    ropts.lookaheadWeight = cfg.lookaheadWeight;
    routeCircuit(native, layout, cost, result.compiled, ropts, cache);
    finishCompile(result, topo, lib, cfg);
    return result;
}

} // namespace qompress
