#include "compiler/router.hh"

#include <algorithm>
#include <functional>
#include <map>

#include "common/error.hh"
#include "ir/passes.hh"

namespace qompress {

namespace {

bool
adjacentOrSameUnit(const ExpandedGraph &xg, SlotId a, SlotId b)
{
    return ExpandedGraph::sameUnit(a, b) || xg.adjacent(a, b);
}

/** Remaining critical-path length (in layers) per gate. */
std::vector<int>
remainingPath(const Circuit &c)
{
    const auto &gates = c.gates();
    std::vector<int> rem(gates.size(), 1);
    std::vector<int> next_rem(c.numQubits(), 0);
    for (int i = static_cast<int>(gates.size()) - 1; i >= 0; --i) {
        int succ = 0;
        for (QubitId q : gates[i].qubits)
            succ = std::max(succ, next_rem[q]);
        rem[i] = 1 + succ;
        for (QubitId q : gates[i].qubits)
            next_rem[q] = rem[i];
    }
    return rem;
}

/** Emit one classified SWAP that exchanges the occupants of a and b. */
void
emitSwap(CompiledCircuit &out, Layout &layout, SlotId a, SlotId b,
         bool is_routing, int source_gate)
{
    const PhysGateClass cls = classifySwap(
        slotPos(a), layout.unitEncoded(slotUnit(a)),
        slotPos(b), layout.unitEncoded(slotUnit(b)),
        ExpandedGraph::sameUnit(a, b));
    PhysGate g;
    g.cls = cls;
    g.slots = {a, b};
    g.logical = GateType::Swap;
    g.isRouting = is_routing;
    g.sourceGate = source_gate;
    out.add(g);
    layout.swapSlots(a, b);
}

/** Route one two-operand gate until its operands can interact.
 *  @param next_partner slot of each qubit's next interaction partner
 *         after this gate (kInvalid when none); used by lookahead. */
void
routeTwoQubitGate(const Gate &g, int gate_idx, Layout &layout,
                  const CostModel &cost, DistanceFieldCache &cache,
                  CompiledCircuit &out, const RouterOptions &ropts,
                  const std::function<QubitId(QubitId)> &next_partner)
{
    const ExpandedGraph &xg = cost.expanded();
    const QubitId q0 = g.qubits[0];
    const QubitId q1 = g.qubits[1];
    const bool is_cx = g.type == GateType::CX;

    // -log success of the final interaction with q0's qubit at x and
    // q1's at y.
    auto final_cost = [&](SlotId x, SlotId y) {
        return is_cx ? cost.cxCost(x, y, layout)
                     : cost.swapCost(x, y, layout);
    };

    int rounds = 0;
    while (!adjacentOrSameUnit(xg, layout.slotOf(q0), layout.slotOf(q1))) {
        QPANIC_IF(++rounds > layout.numSlots() + 4,
                  "router failed to converge for gate ", g.str());
        const SlotId a = layout.slotOf(q0);
        const SlotId b = layout.slotOf(q1);

        // Plan moving q0 toward q1 and vice versa; take the cheaper.
        struct Plan
        {
            double total = ShortestPaths::kInf;
            std::vector<int> path; // slots from source to meeting slot
        };
        // Fetch a distance field either from the cache (hot path) or
        // freshly (the differential baseline). `holder` keeps the
        // uncached copy alive.
        auto get_field = [&](SlotId source,
                             ShortestPaths &holder) -> const ShortestPaths & {
            if (ropts.useDistanceCache)
                return cache.routing(source, layout);
            holder = cost.routingDistances(source, layout);
            return holder;
        };
        auto plan_move = [&](SlotId from, SlotId toward,
                             bool moving_ctl) {
            Plan plan;
            ShortestPaths field_holder;
            const ShortestPaths &field = get_field(from, field_holder);
            // Lookahead: keep the moved qubit close to whoever it
            // interacts with next.
            const QubitId mover = layout.qubitAt(from);
            ShortestPaths ahead_holder;
            const ShortestPaths *ahead_field = nullptr;
            if (ropts.lookaheadWeight > 0.0 && next_partner) {
                const QubitId p = next_partner(mover);
                if (p != kInvalid && layout.isMapped(p)) {
                    ahead_field =
                        &get_field(layout.slotOf(p), ahead_holder);
                }
            }
            SlotId best_x = kInvalid;
            for (SlotId x = 0; x < layout.numSlots(); ++x) {
                if (x == toward || field.dist[x] == ShortestPaths::kInf)
                    continue;
                if (!adjacentOrSameUnit(xg, x, toward))
                    continue;
                const double fc = moving_ctl ? final_cost(x, toward)
                                             : final_cost(toward, x);
                double total = field.dist[x] + fc;
                if (ahead_field &&
                    ahead_field->dist[x] != ShortestPaths::kInf) {
                    total += ropts.lookaheadWeight *
                             ahead_field->dist[x];
                }
                if (total < plan.total) {
                    plan.total = total;
                    best_x = x;
                }
            }
            if (best_x != kInvalid)
                plan.path = field.pathTo(best_x);
            return plan;
        };
        const Plan plan_a = plan_move(a, b, true);
        const Plan plan_b = plan_move(b, a, false);
        QFATAL_IF(plan_a.total == ShortestPaths::kInf &&
                  plan_b.total == ShortestPaths::kInf,
                  "no routing path for gate ", g.str(),
                  " (disconnected occupied region)");
        const Plan &plan = plan_a.total <= plan_b.total ? plan_a : plan_b;

        // Execute the SWAP chain, re-checking adjacency after each hop
        // (the path may displace the other operand).
        for (std::size_t h = 0; h + 1 < plan.path.size(); ++h) {
            emitSwap(out, layout, plan.path[h], plan.path[h + 1],
                     /*is_routing=*/true, gate_idx);
            if (adjacentOrSameUnit(xg, layout.slotOf(q0),
                                   layout.slotOf(q1))) {
                break;
            }
        }
    }

    // Emit the gate itself at the final positions.
    const SlotId a = layout.slotOf(q0);
    const SlotId b = layout.slotOf(q1);
    PhysGate pg;
    pg.slots = {a, b};
    pg.logical = g.type;
    pg.param = g.param;
    pg.sourceGate = gate_idx;
    if (is_cx) {
        pg.cls = classifyCx(slotPos(a),
                            layout.unitEncoded(slotUnit(a)),
                            slotPos(b),
                            layout.unitEncoded(slotUnit(b)),
                            ExpandedGraph::sameUnit(a, b));
    } else {
        // A program-level SWAP performs the logical exchange itself,
        // so qubit tracking must NOT follow it (a routing SWAP moves
        // data transparently and does update the layout; doing both
        // would compose to the identity).
        pg.cls = classifySwap(slotPos(a),
                              layout.unitEncoded(slotUnit(a)),
                              slotPos(b),
                              layout.unitEncoded(slotUnit(b)),
                              ExpandedGraph::sameUnit(a, b));
    }
    out.add(pg);
}

} // namespace

void
routeCircuit(const Circuit &native, Layout &layout, const CostModel &cost,
             CompiledCircuit &out, const RouterOptions &opts,
             DistanceFieldCache *cache)
{
    QFATAL_IF(!isNative(native),
              "routeCircuit requires a native (1q/CX/SWAP) circuit; run "
              "decomposeToNativeGates first");
    const auto layers = native.asapLayers();
    const auto rem = remainingPath(native);
    const auto &gates = native.gates();

    // Distance-field cache for the pass: routing SWAPs never change
    // slot occupancy, so cached Dijkstra fields stay valid across
    // rounds (and across gates). A caller-provided cache (shared with
    // mapping via CompileContext) is reused; otherwise a pass-local
    // one suffices.
    DistanceFieldCache local_cache(cost);
    if (!cache)
        cache = &local_cache;

    // For lookahead: the partner of each qubit's next 2q gate after a
    // given gate index. Built lazily per routed gate from a per-qubit
    // ordered gate list.
    std::vector<std::vector<int>> gates_of(native.numQubits());
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (gates[i].arity() == 2) {
            for (QubitId q : gates[i].qubits)
                gates_of[q].push_back(static_cast<int>(i));
        }
    }
    auto next_partner_after = [&](QubitId q, int gate_idx) -> QubitId {
        for (int gi : gates_of[q]) {
            if (gi > gate_idx) {
                const auto &ng = gates[gi];
                return ng.qubits[0] == q ? ng.qubits[1] : ng.qubits[0];
            }
        }
        return kInvalid;
    };

    // Bucket gate indices by ASAP layer.
    std::map<int, std::vector<int>> by_layer;
    for (std::size_t i = 0; i < gates.size(); ++i)
        by_layer[layers[i]].push_back(static_cast<int>(i));

    for (auto &[layer, idxs] : by_layer) {
        (void)layer;
        // 1-qubit gates first (they commute with this layer's routing):
        // fuse pairs landing on one encoded unit into a ququart gate.
        std::map<UnitId, std::vector<int>> sq_by_unit;
        std::vector<int> twoq;
        for (int i : idxs) {
            if (gates[i].arity() == 1) {
                sq_by_unit[slotUnit(layout.slotOf(gates[i].qubits[0]))]
                    .push_back(i);
            } else {
                twoq.push_back(i);
            }
        }
        for (const auto &[unit, sqs] : sq_by_unit) {
            QPANIC_IF(sqs.size() > 2, "more than two 1q gates on unit ",
                      unit, " in one layer");
            if (sqs.size() == 2) {
                // Order by encode position for deterministic semantics.
                int g0 = sqs[0], g1 = sqs[1];
                if (slotPos(layout.slotOf(gates[g0].qubits[0])) == 1)
                    std::swap(g0, g1);
                PhysGate pg;
                pg.cls = PhysGateClass::SqEncBoth;
                pg.slots = {makeSlot(unit, 0), makeSlot(unit, 1)};
                pg.logical = gates[g0].type;
                pg.param = gates[g0].param;
                pg.logical2 = gates[g1].type;
                pg.param2 = gates[g1].param;
                pg.sourceGate = g0;
                pg.sourceGate2 = g1;
                out.add(pg);
                continue;
            }
            const int i = sqs.front();
            const SlotId s = layout.slotOf(gates[i].qubits[0]);
            PhysGate pg;
            pg.cls = classifySq(slotPos(s),
                                layout.unitEncoded(slotUnit(s)));
            pg.slots = {s};
            pg.logical = gates[i].type;
            pg.param = gates[i].param;
            pg.sourceGate = i;
            out.add(pg);
        }

        // Two-operand gates: longest remaining path first (the paper's
        // serialization tie-break when compressions force ordering).
        std::sort(twoq.begin(), twoq.end(), [&](int a, int b) {
            if (rem[a] != rem[b])
                return rem[a] > rem[b];
            return a < b;
        });
        for (int i : twoq) {
            routeTwoQubitGate(
                gates[i], i, layout, cost, *cache, out, opts,
                [&, i](QubitId q) { return next_partner_after(q, i); });
        }
    }
    out.setFinalLayout(layout);
}

Layout
replayFinalLayout(const CompiledCircuit &compiled)
{
    Layout layout = compiled.initialLayout();
    for (const auto &g : compiled.gates())
        advanceLayout(layout, g);
    return layout;
}

void
advanceLayout(Layout &layout, const PhysGate &g)
{
    switch (g.cls) {
      case PhysGateClass::SwapInternal:
      case PhysGateClass::SwapBareBare:
      case PhysGateClass::SwapBareEnc0:
      case PhysGateClass::SwapBareEnc1:
      case PhysGateClass::SwapEnc00:
      case PhysGateClass::SwapEnc01:
      case PhysGateClass::SwapEnc11:
        // Only transparent routing SWAPs move tracking; a
        // program-level SWAP realizes the logical exchange and
        // leaves the qubit labels on their slots.
        if (g.isRouting)
            layout.swapSlots(g.slots[0], g.slots[1]);
        break;
      case PhysGateClass::SwapFull: {
        const UnitId u = slotUnit(g.slots[0]);
        const UnitId v = slotUnit(g.slots[1]);
        layout.swapSlots(makeSlot(u, 0), makeSlot(v, 0));
        layout.swapSlots(makeSlot(u, 1), makeSlot(v, 1));
        break;
      }
      case PhysGateClass::Encode: {
        if (ExpandedGraph::sameUnit(g.slots[0], g.slots[1]))
            break; // initial encode: layout already encoded
        const UnitId dst = slotUnit(g.slots[0]);
        const QubitId moving = layout.qubitAt(g.slots[1]);
        QPANIC_IF(moving == kInvalid, "ENC from empty slot");
        layout.remove(moving);
        layout.place(moving, makeSlot(dst, 1));
        break;
      }
      case PhysGateClass::Decode: {
        const UnitId src = slotUnit(g.slots[0]);
        const QubitId moving = layout.qubitAt(makeSlot(src, 1));
        QPANIC_IF(moving == kInvalid, "DEC from non-encoded unit");
        layout.remove(moving);
        layout.place(moving, g.slots[1]);
        break;
      }
      default:
        break; // non-moving gates
    }
}

void
validateCompiled(const CompiledCircuit &compiled, const Topology &topo)
{
    Layout layout = compiled.initialLayout();

    for (const auto &g : compiled.gates()) {
        // Structural checks.
        QPANIC_IF(g.slots.empty() || g.slots.size() > 2,
                  "gate with ", g.slots.size(), " slots");
        for (SlotId s : g.slots) {
            QPANIC_IF(s < 0 || s >= layout.numSlots(),
                      "slot ", s, " out of range in ", g.str());
        }
        const bool same =
            g.slots.size() == 2 &&
            ExpandedGraph::sameUnit(g.slots[0], g.slots[1]);
        if (g.slots.size() == 2 && !same) {
            QPANIC_IF(!topo.adjacent(slotUnit(g.slots[0]),
                                     slotUnit(g.slots[1])),
                      "two-unit gate on uncoupled units: ", g.str());
        }

        // Classification consistency against the replayed state.
        const SlotId a = g.slots[0];
        const SlotId b = g.slots.size() == 2 ? g.slots[1] : kInvalid;
        auto enc = [&](SlotId s) {
            return layout.unitEncoded(slotUnit(s));
        };
        switch (g.cls) {
          case PhysGateClass::SqBare:
          case PhysGateClass::SqEnc0:
          case PhysGateClass::SqEnc1:
            QPANIC_IF(!layout.occupied(a), "1q gate on empty slot");
            QPANIC_IF(classifySq(slotPos(a), enc(a)) != g.cls,
                      "misclassified 1q gate: ", g.str());
            break;
          case PhysGateClass::SqEncBoth:
            QPANIC_IF(b == kInvalid || !same,
                      "fused 1q pair must span one unit");
            QPANIC_IF(!enc(a), "fused 1q pair on non-encoded unit");
            break;
          case PhysGateClass::CxInternal0:
          case PhysGateClass::CxInternal1:
          case PhysGateClass::CxBareBare:
          case PhysGateClass::CxEnc0Bare:
          case PhysGateClass::CxEnc1Bare:
          case PhysGateClass::CxBareEnc0:
          case PhysGateClass::CxBareEnc1:
          case PhysGateClass::CxEnc00:
          case PhysGateClass::CxEnc01:
          case PhysGateClass::CxEnc10:
          case PhysGateClass::CxEnc11:
            QPANIC_IF(b == kInvalid, "CX with one operand");
            QPANIC_IF(!layout.occupied(a) || !layout.occupied(b),
                      "CX on empty slot: ", g.str());
            QPANIC_IF(classifyCx(slotPos(a), enc(a), slotPos(b), enc(b),
                                 same) != g.cls,
                      "misclassified CX: ", g.str());
            break;
          case PhysGateClass::SwapInternal:
          case PhysGateClass::SwapBareBare:
          case PhysGateClass::SwapBareEnc0:
          case PhysGateClass::SwapBareEnc1:
          case PhysGateClass::SwapEnc00:
          case PhysGateClass::SwapEnc01:
          case PhysGateClass::SwapEnc11:
            QPANIC_IF(b == kInvalid, "SWAP with one operand");
            QPANIC_IF(!layout.occupied(a) && !layout.occupied(b),
                      "SWAP between two empty slots: ", g.str());
            QPANIC_IF(classifySwap(slotPos(a), enc(a), slotPos(b),
                                   enc(b), same) != g.cls,
                      "misclassified SWAP: ", g.str());
            break;
          case PhysGateClass::SwapFull:
            QPANIC_IF(b == kInvalid || same, "bad SWAP4 operands");
            break;
          case PhysGateClass::Encode:
            if (!same) {
                QPANIC_IF(!layout.occupied(makeSlot(slotUnit(a), 0)),
                          "ENC into unit with empty position 0");
                QPANIC_IF(layout.occupied(makeSlot(slotUnit(a), 1)),
                          "ENC into already-encoded unit");
                QPANIC_IF(!layout.occupied(g.slots[1]),
                          "ENC from empty source");
            } else {
                QPANIC_IF(!enc(a), "initial ENC on non-encoded unit");
            }
            break;
          case PhysGateClass::Decode:
            QPANIC_IF(!layout.unitEncoded(slotUnit(a)),
                      "DEC on non-encoded unit");
            QPANIC_IF(layout.occupied(g.slots[1]),
                      "DEC into occupied slot");
            break;
          default:
            QPANIC("unknown gate class in validate");
        }

        // Advance the replay.
        advanceLayout(layout, g);
    }

    // Final layout agreement.
    const Layout &expect = compiled.finalLayout();
    for (QubitId q = 0; q < layout.numQubits(); ++q) {
        QPANIC_IF(layout.slotOf(q) != expect.slotOf(q),
                  "final layout mismatch for qubit ", q);
    }
}

} // namespace qompress
