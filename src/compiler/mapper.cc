#include "compiler/mapper.hh"

#include <algorithm>

#include "common/error.hh"

namespace qompress {

std::vector<QubitId>
partnerTable(int num_qubits, const std::vector<Compression> &pairs)
{
    std::vector<QubitId> partner(num_qubits, kInvalid);
    for (const auto &p : pairs) {
        QFATAL_IF(p.first < 0 || p.first >= num_qubits ||
                  p.second < 0 || p.second >= num_qubits,
                  "compression pair (", p.first, ", ", p.second,
                  ") out of range");
        QFATAL_IF(p.first == p.second,
                  "compression pair with identical qubits ", p.first);
        QFATAL_IF(partner[p.first] != kInvalid ||
                  partner[p.second] != kInvalid,
                  "qubit appears in two compression pairs");
        partner[p.first] = p.second;
        partner[p.second] = p.first;
    }
    return partner;
}

Layout
mapCircuit(const Circuit &circuit, const InteractionModel &im,
           const CostModel &cost, const MapperOptions &opts,
           DistanceFieldCache *cache)
{
    const int n = circuit.numQubits();
    const ExpandedGraph &xg = cost.expanded();
    const Topology &topo = xg.topology();
    Layout layout(n, topo.numUnits());
    DistanceFieldCache local_cache(cost);
    if (!cache)
        cache = &local_cache;

    const auto partner = partnerTable(n, opts.pairs);
    // is_second[q]: q is the position-1 element of its pair.
    std::vector<bool> is_second(n, false);
    for (const auto &p : opts.pairs)
        is_second[p.second] = true;

    // Capacity check: pairs use one unit, everything else needs its own
    // position-0 slot unless dynamic slot-1 use is on.
    const int paired = static_cast<int>(opts.pairs.size());
    const int capacity = opts.allowDynamicSlot1 ? 2 * topo.numUnits()
                                                : topo.numUnits() + paired;
    QFATAL_IF(n > capacity, "circuit of ", n, " qubits exceeds device ",
              topo.name(), " capacity of ", capacity);

    // Candidate slots for a specific qubit under the current layout.
    auto candidates = [&](QubitId q) {
        std::vector<SlotId> out;
        const QubitId mate = partner[q];
        if (mate != kInvalid && layout.isMapped(mate)) {
            // Forced into the partner's unit.
            const UnitId u = slotUnit(layout.slotOf(mate));
            const SlotId free = layout.occupied(makeSlot(u, 0))
                ? makeSlot(u, 1) : makeSlot(u, 0);
            if (!layout.occupied(free))
                out.push_back(free);
            return out;
        }
        for (UnitId u = 0; u < topo.numUnits(); ++u) {
            const SlotId s0 = makeSlot(u, 0);
            const SlotId s1 = makeSlot(u, 1);
            if (!layout.occupied(s0)) {
                // First element of a pair must leave room for its mate;
                // any unpaired qubit can take an empty unit too.
                out.push_back(s0);
            } else if (!layout.occupied(s1)) {
                // Position 1 only opens once position 0 is taken; it is
                // reserved for the occupant's mate when one exists, and
                // otherwise available only under dynamic (EQM) pairing
                // for qubits that are themselves unpaired.
                const QubitId host = layout.qubitAt(s0);
                if (partner[host] != kInvalid)
                    continue;
                if (opts.allowDynamicSlot1 && mate == kInvalid)
                    out.push_back(s1);
            }
        }
        return out;
    };

    // Seed: the qubit with the greatest total interaction weight goes to
    // the center unit (paper section 4.2). Prefer pair-firsts so the
    // committed ordering (first -> position 0) is respected.
    std::vector<QubitId> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](QubitId a, QubitId b) {
        return im.totalWeight(a) > im.totalWeight(b);
    });
    QubitId seed = order.front();
    if (is_second[seed])
        seed = partner[seed];
    layout.place(seed, makeSlot(xg.centerUnit(), 0));

    while (layout.numMapped() < n) {
        // Pick the unmapped qubit with the strongest ties to the placed
        // set; defer pair-seconds whose mate is still unmapped so the
        // committed position order holds.
        QubitId best_q = kInvalid;
        double best_w = -1.0;
        QubitId fallback = kInvalid;
        for (QubitId q : order) {
            if (layout.isMapped(q))
                continue;
            if (is_second[q] && !layout.isMapped(partner[q])) {
                if (fallback == kInvalid)
                    fallback = partner[q];
                continue;
            }
            if (fallback == kInvalid)
                fallback = q;
            double w = 0.0;
            for (const auto &e : im.graph().neighbors(q)) {
                if (layout.isMapped(e.to))
                    w += e.weight;
            }
            if (w > best_w) {
                best_w = w;
                best_q = q;
            }
        }
        if (best_q == kInvalid || best_w <= 0.0) {
            // Nothing interacts with the placed set yet; take the
            // highest-weight remaining qubit instead.
            best_q = fallback;
        }
        QPANIC_IF(best_q == kInvalid, "mapper: no qubit to place");

        const auto cands = candidates(best_q);
        QFATAL_IF(cands.empty(), "no placement available for qubit ",
                  best_q, " on ", topo.name());

        // Score candidates by weighted mapping distance to the placed
        // interaction partners (smaller is better).
        SlotId best_s = cands.front();
        if (cands.size() > 1) {
            // One distance field per placed partner of best_q, cached
            // fields referenced in place (unordered_map elements are
            // address-stable and no mutation happens between the
            // fetches below).
            std::vector<std::pair<double, const ShortestPaths *>> fields;
            for (const auto &e : im.graph().neighbors(best_q)) {
                if (!layout.isMapped(e.to))
                    continue;
                fields.emplace_back(
                    e.weight, &cache->mapping(layout.slotOf(e.to), layout));
            }
            if (fields.empty()) {
                // Untied qubit: prefer staying near the center.
                fields.emplace_back(
                    1.0,
                    &cache->mapping(makeSlot(xg.centerUnit(), 0), layout));
            }
            double best_score = ShortestPaths::kInf;
            for (SlotId s : cands) {
                double score = 0.0;
                for (const auto &[w, field] : fields)
                    score += w * field->dist[s];
                if (score < best_score) {
                    best_score = score;
                    best_s = s;
                }
            }
        }
        layout.place(best_q, best_s);
    }
    return layout;
}

} // namespace qompress
