#include "strategies/full_ququart.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/error.hh"
#include "graph/algorithms.hh"
#include "ir/interaction.hh"
#include "ir/passes.hh"

namespace qompress {

std::vector<Compression>
FullQuquartStrategy::choosePairs(const Circuit &native,
                                 const Topology &topo,
                                 const GateLibrary &lib,
                                 const CompilerConfig &cfg,
                                 CompileContext &ctx) const
{
    (void)topo;
    (void)lib;
    (void)cfg;
    (void)ctx;
    const InteractionModel im(native);
    const int n = native.numQubits();

    // All candidate pairs sorted by interaction weight (heaviest
    // first); greedily matched so strongly-interacting qubits share a
    // ququart and their gates become internal.
    struct Cand
    {
        double w;
        QubitId a, b;
    };
    std::vector<Cand> cands;
    for (QubitId a = 0; a < n; ++a)
        for (QubitId b = a + 1; b < n; ++b)
            cands.push_back({im.weight(a, b), a, b});
    std::sort(cands.begin(), cands.end(), [](const Cand &x, const Cand &y) {
        if (x.w != y.w)
            return x.w > y.w;
        return std::tie(x.a, x.b) < std::tie(y.a, y.b);
    });

    std::vector<bool> paired(n, false);
    std::vector<Compression> pairs;
    for (const auto &c : cands) {
        if (paired[c.a] || paired[c.b])
            continue;
        pairs.push_back({c.a, c.b});
        paired[c.a] = true;
        paired[c.b] = true;
    }
    return pairs;
}

namespace {

/** FQ-specific emission helpers sharing one mutable state. */
class FqRouter
{
  public:
    /** @param cache the shared unit-level distance cache; SWAP4
     *  chains between two encoded (or two equally occupied) units
     *  leave every unit signature intact, so successive routing
     *  rounds revalidate instead of re-running Dijkstra. */
    FqRouter(const Topology &topo, Layout &layout, CompiledCircuit &out,
             DistanceFieldCache &cache)
        : topo_(topo), layout_(layout), out_(out), cache_(cache)
    {
    }

    void
    emitSwapFull(UnitId u, UnitId v, int source)
    {
        QPANIC_IF(!topo_.adjacent(u, v), "SWAP4 on uncoupled units");
        PhysGate g;
        g.cls = PhysGateClass::SwapFull;
        g.slots = {makeSlot(u, 0), makeSlot(v, 0)};
        g.logical = GateType::Swap;
        g.isRouting = true;
        g.sourceGate = source;
        out_.add(g);
        layout_.swapSlots(makeSlot(u, 0), makeSlot(v, 0));
        layout_.swapSlots(makeSlot(u, 1), makeSlot(v, 1));
    }

    /** Move the whole unit holding @p qa adjacent to @p qb's unit. */
    void
    routeUnitsAdjacent(QubitId qa, QubitId qb, int source)
    {
        int rounds = 0;
        while (true) {
            const UnitId ua = slotUnit(layout_.slotOf(qa));
            const UnitId ub = slotUnit(layout_.slotOf(qb));
            if (ua == ub || topo_.adjacent(ua, ub))
                return;
            QPANIC_IF(++rounds > 2 * topo_.numUnits(),
                      "FQ unit routing failed to converge");
            // Cheapest SWAP4 path from ua to a neighbour of ub.
            const ShortestPaths &field = cache_.unit(ua, layout_);
            double best = ShortestPaths::kInf;
            UnitId target = kInvalid;
            for (const auto &e : topo_.graph().neighbors(ub)) {
                if (e.to != ua && field.dist[e.to] < best) {
                    best = field.dist[e.to];
                    target = e.to;
                }
            }
            QFATAL_IF(target == kInvalid, "FQ routing: no path");
            const auto path = field.pathTo(target);
            for (std::size_t h = 0; h + 1 < path.size(); ++h) {
                emitSwapFull(path[h], path[h + 1], source);
                const UnitId na = slotUnit(layout_.slotOf(qa));
                const UnitId nb = slotUnit(layout_.slotOf(qb));
                if (na == nb || topo_.adjacent(na, nb))
                    return;
            }
        }
    }

    /**
     * Bring an empty unit adjacent to @p u (never relocating units in
     * @p blocked) and return it. The empty unit shuffles toward u with
     * SWAP4 moves.
     */
    UnitId
    acquireAncilla(UnitId u, const std::vector<UnitId> &blocked,
                   int source)
    {
        // BFS from u over non-blocked units to the nearest empty one.
        const int nu = topo_.numUnits();
        std::vector<int> parent(nu, -2);
        std::vector<UnitId> queue{u};
        parent[u] = -1;
        UnitId empty = kInvalid;
        for (std::size_t qi = 0; qi < queue.size() && empty == kInvalid;
             ++qi) {
            for (const auto &e : topo_.graph().neighbors(queue[qi])) {
                if (parent[e.to] != -2)
                    continue;
                if (std::find(blocked.begin(), blocked.end(), e.to)
                    != blocked.end()) {
                    continue;
                }
                parent[e.to] = queue[qi];
                queue.push_back(e.to);
                if (layout_.unitOccupancy(e.to) == 0) {
                    empty = e.to;
                    break;
                }
            }
        }
        QFATAL_IF(empty == kInvalid,
                  "FQ: no reachable decode ancilla near unit ", u);
        // Walk the empty unit up the BFS tree until adjacent to u.
        UnitId cur = empty;
        while (parent[cur] != static_cast<int>(u) &&
               parent[cur] != -1) {
            emitSwapFull(cur, parent[cur], source);
            cur = parent[cur];
        }
        return cur;
    }

    /**
     * Decode the pair on unit @p u so that @p operand ends bare at
     * position 0; returns the ancilla unit now holding the partner.
     */
    UnitId
    decodeFor(QubitId operand, const std::vector<UnitId> &blocked,
              int source)
    {
        const SlotId s = layout_.slotOf(operand);
        const UnitId u = slotUnit(s);
        QPANIC_IF(!layout_.unitEncoded(u), "decodeFor on bare unit");
        if (slotPos(s) == 1) {
            PhysGate swap_in;
            swap_in.cls = PhysGateClass::SwapInternal;
            swap_in.slots = {makeSlot(u, 0), makeSlot(u, 1)};
            swap_in.logical = GateType::Swap;
            swap_in.isRouting = true;
            swap_in.sourceGate = source;
            out_.add(swap_in);
            layout_.swapSlots(makeSlot(u, 0), makeSlot(u, 1));
        }
        const UnitId anc = acquireAncilla(u, blocked, source);
        PhysGate dec;
        dec.cls = PhysGateClass::Decode;
        dec.slots = {makeSlot(u, 0), makeSlot(anc, 0)};
        dec.logical = GateType::Swap;
        dec.isRouting = true;
        dec.sourceGate = source;
        out_.add(dec);
        const QubitId partner = layout_.qubitAt(makeSlot(u, 1));
        layout_.remove(partner);
        layout_.place(partner, makeSlot(anc, 0));
        return anc;
    }

    /** Re-encode the partner on @p anc back into @p u. */
    void
    encodeBack(UnitId u, UnitId anc, int source)
    {
        PhysGate enc;
        enc.cls = PhysGateClass::Encode;
        enc.slots = {makeSlot(u, 0), makeSlot(anc, 0)};
        enc.logical = GateType::Swap;
        enc.isRouting = true;
        enc.sourceGate = source;
        out_.add(enc);
        const QubitId partner = layout_.qubitAt(makeSlot(anc, 0));
        QPANIC_IF(partner == kInvalid, "encodeBack from empty ancilla");
        layout_.remove(partner);
        layout_.place(partner, makeSlot(u, 1));
    }

  private:
    const Topology &topo_;
    Layout &layout_;
    CompiledCircuit &out_;
    DistanceFieldCache &cache_;
};

} // namespace

CompileResult
FullQuquartStrategy::compile(const Circuit &circuit, const Topology &topo,
                             const GateLibrary &lib,
                             const CompilerConfig &cfg,
                             CompileContext *ctx_in) const
{
    const Circuit native = isNative(circuit)
        ? circuit : decomposeToNativeGates(circuit);
    const InteractionModel im(native);
    std::optional<CompileContext> local;
    if (!ctx_in)
        local.emplace(topo, lib, cfg);
    CompileContext &ctx = ctx_in ? *ctx_in : *local;
    const auto pairs = choosePairs(native, topo, lib, cfg, ctx);
    const int n = native.numQubits();

    const int nodes = static_cast<int>(pairs.size()) + (n % 2);
    QFATAL_IF(nodes + 2 > topo.numUnits(),
              "FQ needs ", nodes + 2, " units (pairs + 2 ancillas), ",
              topo.name(), " has ", topo.numUnits());

    // --- Unit-level placement of pair nodes -------------------------
    const auto partner = partnerTable(n, pairs);
    // Node id per qubit: pairs share a node.
    std::vector<int> node_of(n, -1);
    std::vector<std::vector<QubitId>> node_members;
    for (const auto &p : pairs) {
        node_of[p.first] = static_cast<int>(node_members.size());
        node_of[p.second] = static_cast<int>(node_members.size());
        node_members.push_back({p.first, p.second});
    }
    for (QubitId q = 0; q < n; ++q) {
        if (node_of[q] == -1) {
            node_of[q] = static_cast<int>(node_members.size());
            node_members.push_back({q});
        }
    }
    const int num_nodes = static_cast<int>(node_members.size());
    // Inter-node interaction weights.
    std::vector<std::vector<double>> nw(
        num_nodes, std::vector<double>(num_nodes, 0.0));
    for (const auto &e : im.graph().edges()) {
        const int a = node_of[e.u];
        const int b = node_of[e.v];
        if (a != b) {
            nw[a][b] += e.w;
            nw[b][a] += e.w;
        }
    }

    std::vector<UnitId> node_unit(num_nodes, kInvalid);
    std::vector<bool> unit_used(topo.numUnits(), false);
    auto place_node = [&](int node, UnitId u) {
        node_unit[node] = u;
        unit_used[u] = true;
    };
    // Seed the heaviest node at the center.
    std::vector<int> order(num_nodes);
    for (int i = 0; i < num_nodes; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        double wa = 0, wb = 0;
        for (int k = 0; k < num_nodes; ++k) {
            wa += nw[a][k];
            wb += nw[b][k];
        }
        return wa > wb;
    });
    place_node(order[0], ctx.expanded().centerUnit());
    for (int oi = 1; oi < num_nodes; ++oi) {
        // Most-connected-to-placed next.
        int best_node = -1;
        double best_w = -1.0;
        for (int node = 0; node < num_nodes; ++node) {
            if (node_unit[node] != kInvalid)
                continue;
            double w = 0.0;
            for (int k = 0; k < num_nodes; ++k) {
                if (node_unit[k] != kInvalid)
                    w += nw[node][k];
            }
            if (w > best_w) {
                best_w = w;
                best_node = node;
            }
        }
        // Weighted-BFS-distance placement with a preference for spots
        // that keep an empty neighbour as decode space.
        std::vector<std::pair<double, ShortestPaths>> fields;
        for (int k = 0; k < num_nodes; ++k) {
            if (node_unit[k] != kInvalid && nw[best_node][k] > 0.0)
                fields.emplace_back(nw[best_node][k],
                                    bfs(topo.graph(), node_unit[k]));
        }
        UnitId best_u = kInvalid;
        double best_score = ShortestPaths::kInf;
        for (UnitId u = 0; u < topo.numUnits(); ++u) {
            if (unit_used[u])
                continue;
            double score = 0.0;
            for (const auto &[w, field] : fields)
                score += w * field.dist[u];
            int free_neighbors = 0;
            for (const auto &e : topo.graph().neighbors(u)) {
                if (!unit_used[e.to])
                    ++free_neighbors;
            }
            // Light decode-space preference (tie-break scale).
            score += free_neighbors == 0 ? 0.5 : 0.0;
            if (score < best_score) {
                best_score = score;
                best_u = u;
            }
        }
        QPANIC_IF(best_u == kInvalid, "FQ mapping: no unit available");
        place_node(best_node, best_u);
    }

    Layout layout(n, topo.numUnits());
    for (int node = 0; node < num_nodes; ++node) {
        const auto &members = node_members[node];
        layout.place(members[0], makeSlot(node_unit[node], 0));
        if (members.size() == 2)
            layout.place(members[1], makeSlot(node_unit[node], 1));
    }

    CompileResult result = beginCompile(layout, native.name(), cfg);

    // --- Qudit-level routing with encode/decode ---------------------
    FqRouter router(topo, layout, result.compiled, *ctx.cache());
    const auto &gates = native.gates();
    const auto layers = native.asapLayers();
    std::vector<int> idx_order(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i)
        idx_order[i] = static_cast<int>(i);
    std::stable_sort(idx_order.begin(), idx_order.end(),
                     [&](int a, int b) { return layers[a] < layers[b]; });

    for (int gi : idx_order) {
        const Gate &g = gates[gi];
        if (g.arity() == 1) {
            const SlotId s = layout.slotOf(g.qubits[0]);
            PhysGate pg;
            pg.cls = classifySq(slotPos(s),
                                layout.unitEncoded(slotUnit(s)));
            pg.slots = {s};
            pg.logical = g.type;
            pg.param = g.param;
            pg.sourceGate = gi;
            result.compiled.add(pg);
            continue;
        }
        const QubitId qa = g.qubits[0];
        const QubitId qb = g.qubits[1];
        if (ExpandedGraph::sameUnit(layout.slotOf(qa),
                                    layout.slotOf(qb))) {
            // Internal gates stay fast even in the FQ model.
            const SlotId a = layout.slotOf(qa);
            const SlotId b = layout.slotOf(qb);
            PhysGate pg;
            pg.slots = {a, b};
            pg.logical = g.type;
            pg.param = g.param;
            pg.sourceGate = gi;
            if (g.type == GateType::CX) {
                pg.cls = slotPos(a) == 0 ? PhysGateClass::CxInternal0
                                         : PhysGateClass::CxInternal1;
                result.compiled.add(pg);
            } else {
                // Program-level SWAP: the gate realizes the logical
                // exchange, so tracking stays put.
                pg.cls = PhysGateClass::SwapInternal;
                result.compiled.add(pg);
            }
            continue;
        }
        // External: route units together, decode, operate, re-encode.
        router.routeUnitsAdjacent(qa, qb, gi);
        const UnitId ua = slotUnit(layout.slotOf(qa));
        const UnitId ub = slotUnit(layout.slotOf(qb));
        std::vector<UnitId> blocked{ua, ub};
        UnitId anc_a = kInvalid, anc_b = kInvalid;
        if (layout.unitEncoded(ua)) {
            anc_a = router.decodeFor(qa, blocked, gi);
            blocked.push_back(anc_a);
        }
        if (layout.unitEncoded(ub)) {
            anc_b = router.decodeFor(qb, blocked, gi);
            blocked.push_back(anc_b);
        }
        const SlotId sa = layout.slotOf(qa);
        const SlotId sb = layout.slotOf(qb);
        PhysGate pg;
        pg.slots = {sa, sb};
        pg.logical = g.type;
        pg.param = g.param;
        pg.sourceGate = gi;
        if (g.type == GateType::CX) {
            pg.cls = PhysGateClass::CxBareBare;
        } else {
            // Program-level SWAP: no tracking update (see above).
            pg.cls = PhysGateClass::SwapBareBare;
        }
        result.compiled.add(pg);
        if (anc_a != kInvalid)
            router.encodeBack(ua, anc_a, gi);
        if (anc_b != kInvalid)
            router.encodeBack(ub, anc_b, gi);
    }

    result.compiled.setFinalLayout(layout);
    finishCompile(result, topo, lib, cfg);
    return result;
}

} // namespace qompress
