#include "compiler/cost_model.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "arch/device.hh"
#include "common/error.hh"

namespace qompress {

namespace {

/**
 * Eq. 4 success of a gate with library fidelity @p fid and duration
 * @p dur on unit @p ua (encoded bit @p enc_a), and on @p ub too when
 * it spans two units (kInvalid otherwise), under coupling scales
 * @p edge (null = unscaled). @p decay(unit, encoded, duration)
 * supplies exp(-duration / T1), so the per-call pricers and the table
 * build share one arithmetic.
 */
template <typename Decay>
double
successOf(double fid, double dur, UnitId ua, bool enc_a, UnitId ub,
          bool enc_b, const DeviceCalibration::Edge *edge,
          const Decay &decay)
{
    if (edge) {
        fid *= edge->fidelityScale;
        dur *= edge->durationScale;
    }
    double s = fid * decay(ua, enc_a, dur);
    if (ub != kInvalid)
        s *= decay(ub, enc_b, dur);
    return s;
}

/** Per-slot state read once per distance field: bit 0 = the slot is
 *  occupied, bit 1 = its unit is encoded. */
std::vector<std::uint8_t>
slotStates(const Layout &layout, int num_slots)
{
    std::vector<std::uint8_t> st(static_cast<std::size_t>(num_slots));
    for (UnitId u = 0; 2 * u < num_slots; ++u) {
        const std::uint8_t sig = layout.unitSignature(u);
        const std::uint8_t enc = sig == 3 ? 2 : 0;
        st[makeSlot(u, 0)] = enc | (sig & 1);
        st[makeSlot(u, 1)] = enc | (sig >> 1);
    }
    return st;
}

} // namespace

CostModel::CostModel(const ExpandedGraph &xg, const GateLibrary &lib,
                     double through_ququart_penalty,
                     const DeviceCalibration *cal)
    : xg_(&xg), lib_(&lib), penalty_(through_ququart_penalty), cal_(cal)
{
    QFATAL_IF(penalty_ < 1.0, "through-ququart penalty must be >= 1");
    QFATAL_IF(cal_ && cal_->numUnits() != xg.topology().numUnits(),
              "calibration '", cal_ ? cal_->device : "", "' covers ",
              cal_ ? cal_->numUnits() : 0, " units but topology '",
              xg.topology().name(), "' has ", xg.topology().numUnits());
    buildPriceTables();
}

double
CostModel::unitDecay(UnitId u, bool encoded, double duration) const
{
    const double t1 =
        cal_ ? (encoded ? cal_->t1QuquartNs[u] : cal_->t1QubitNs[u])
             : (encoded ? lib_->t1Ququart() : lib_->t1Qubit());
    return std::exp(-duration / t1);
}

void
CostModel::buildPriceTables()
{
    const Graph &g = xg_->graph();
    const int ns = g.numVertices();
    edgeBase_.assign(static_cast<std::size_t>(ns) + 1, 0);
    for (SlotId s = 0; s < ns; ++s)
        edgeBase_[s + 1] = edgeBase_[s] + g.neighbors(s).size();
    swapPrice_.resize(4 * edgeBase_[ns]);
    hopPrice_.resize(4 * edgeBase_[ns]);

    // Library constants per class, and the class of every SWAP shape
    // [same unit][pos a][pos b][enc a * 2 + enc b], read once.
    constexpr int kClasses = static_cast<int>(PhysGateClass::NumClasses);
    double fid[kClasses], dur[kClasses];
    for (int c = 0; c < kClasses; ++c) {
        fid[c] = lib_->fidelity(static_cast<PhysGateClass>(c));
        dur[c] = lib_->duration(static_cast<PhysGateClass>(c));
    }
    PhysGateClass shape[2][2][2][4] = {};
    for (int same = 0; same < 2; ++same) {
        for (int pa = 0; pa < 2; ++pa) {
            for (int pb = 0; pb < 2; ++pb) {
                if (same && pa == pb)
                    continue; // not an edge
                for (int k = 0; k < 4; ++k) {
                    shape[same][pa][pb][k] =
                        classifySwap(pa, k >> 1, pb, k & 1, same);
                }
            }
        }
    }

    // One exp(-dur/T1) per (unit, class, encoded) at the library's
    // class duration -- per (class, encoded) when uncalibrated, since
    // every unit then shares the library T1s. A calibrated coupling's
    // scaled durations are priced directly.
    const int memo_units = cal_ ? xg_->topology().numUnits() : 1;
    std::vector<double> decay_memo(
        static_cast<std::size_t>(memo_units) * kClasses * 2, -1.0);
    int c = 0; // the class being priced; keys the memo below
    const auto decay = [&](UnitId u, bool enc, double d) {
        if (d != dur[c])
            return unitDecay(u, enc, d);
        double &m = decay_memo[(static_cast<std::size_t>(cal_ ? u : 0) *
                                    kClasses + c) * 2 + enc];
        if (m < 0.0)
            m = unitDecay(u, enc, d);
        return m;
    };
    // -log is a pure function of the success, and most edges share
    // one: a direct-mapped memo keyed on its bits takes one log per
    // distinct value.
    constexpr std::size_t kLogSlots = 256;
    std::uint64_t log_key[kLogSlots];
    double log_val[kLogSlots];
    std::fill(log_val, log_val + kLogSlots, -1.0);
    const auto neg_log = [&](double x) {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        const std::size_t slot = (bits * 0x9e3779b97f4a7c15ull) >> 56;
        if (log_val[slot] < 0.0 || log_key[slot] != bits) {
            log_key[slot] = bits;
            log_val[slot] = -std::log(x);
        }
        return log_val[slot];
    };

    for (SlotId a = 0; a < ns; ++a) {
        const auto &adj = g.neighbors(a);
        for (std::size_t i = 0; i < adj.size(); ++i) {
            const SlotId b = adj[i].to;
            const bool cross = !ExpandedGraph::sameUnit(a, b);
            const DeviceCalibration::Edge *edge =
                cross && cal_ ? cal_->edge(slotUnit(a), slotUnit(b))
                              : nullptr;
            const PhysGateClass *cls =
                shape[!cross][slotPos(a)][slotPos(b)];
            for (int k = 0; k < 4; ++k) {
                c = static_cast<int>(cls[k]);
                const double cost = neg_log(successOf(
                    fid[c], dur[c], slotUnit(a), k >> 1,
                    cross ? slotUnit(b) : kInvalid, k & 1, edge, decay));
                QPANIC_IF(!(cost >= 0.0), "cost model: swap price ",
                          cost, " on (", a, ", ", b, ")");
                const std::size_t at = 4 * (edgeBase_[a] + i) + k;
                swapPrice_[at] = cost;
                hopPrice_[at] = cross && (k & 1) ? cost * penalty_ : cost;
            }
        }
    }
}

double
CostModel::gateSuccess(PhysGateClass c, SlotId a, SlotId b,
                       const Layout &layout) const
{
    const bool two_unit = b != kInvalid && slotUnit(b) != slotUnit(a);
    return gateSuccess(c, a, b, layout.unitEncoded(slotUnit(a)),
                       two_unit && layout.unitEncoded(slotUnit(b)));
}

double
CostModel::gateSuccess(PhysGateClass c, SlotId a, SlotId b, bool enc_a,
                       bool enc_b) const
{
    const bool two_unit = b != kInvalid && slotUnit(b) != slotUnit(a);
    const DeviceCalibration::Edge *edge =
        two_unit && cal_ ? cal_->edge(slotUnit(a), slotUnit(b)) : nullptr;
    return successOf(lib_->fidelity(c), lib_->duration(c), slotUnit(a),
                     enc_a, two_unit ? slotUnit(b) : kInvalid, enc_b, edge,
                     [this](UnitId u, bool enc, double dur) {
                         return unitDecay(u, enc, dur);
                     });
}

double
CostModel::swapCost(SlotId a, SlotId b, bool enc_a, bool enc_b) const
{
    const PhysGateClass c = classifySwap(
        slotPos(a), enc_a, slotPos(b), enc_b, ExpandedGraph::sameUnit(a, b));
    return -std::log(gateSuccess(c, a, b, enc_a, enc_b));
}

double
CostModel::routingHopCost(SlotId from, SlotId into,
                          const Layout &layout) const
{
    if (!layout.occupied(into))
        return ShortestPaths::kInf;
    double cost = swapCost(from, into, layout);
    if (!ExpandedGraph::sameUnit(from, into) &&
        layout.unitEncoded(slotUnit(into))) {
        cost *= penalty_;
    }
    return cost;
}

double
CostModel::cxCost(SlotId ctl, SlotId tgt, const Layout &layout) const
{
    const bool same = ExpandedGraph::sameUnit(ctl, tgt);
    const PhysGateClass c = classifyCx(
        slotPos(ctl), layout.unitEncoded(slotUnit(ctl)),
        slotPos(tgt), layout.unitEncoded(slotUnit(tgt)), same);
    return -std::log(gateSuccess(c, ctl, tgt, layout));
}

ShortestPaths
CostModel::mappingDistances(SlotId source, const Layout &layout) const
{
    const auto st = slotStates(layout, xg_->numSlots());
    return dijkstraWith(
        xg_->graph(), source,
        [&](int u, std::size_t i, const GraphEdge &e) {
            return swapPrice_[4 * (edgeBase_[u] + i) + (st[u] & 2) +
                              (st[e.to] >> 1)];
        });
}

ShortestPaths
CostModel::routingDistances(SlotId source, const Layout &layout) const
{
    const auto st = slotStates(layout, xg_->numSlots());
    return dijkstraWith(
        xg_->graph(), source,
        [&](int u, std::size_t i, const GraphEdge &e) {
            if (!(st[e.to] & 1))
                return ShortestPaths::kInf;
            return hopPrice_[4 * (edgeBase_[u] + i) + (st[u] & 2) +
                             (st[e.to] >> 1)];
        });
}

double
CostModel::swap4Cost(UnitId u, UnitId v, const Layout &layout) const
{
    return -std::log(successOf(
        lib_->fidelity(PhysGateClass::SwapFull),
        lib_->duration(PhysGateClass::SwapFull), u, layout.unitEncoded(u),
        v, layout.unitEncoded(v), cal_ ? cal_->edge(u, v) : nullptr,
        [this](UnitId w, bool enc, double dur) {
            return unitDecay(w, enc, dur);
        }));
}

ShortestPaths
CostModel::unitDistances(UnitId source, const Layout &layout) const
{
    return dijkstra(
        xg_->topology().graph(), source,
        [this, &layout](int u, int v, double) {
            return swap4Cost(u, v, layout);
        });
}

void
DistanceFieldCache::stamp(Entry &e, const Layout &layout)
{
    e.layoutId = layout.instanceId();
    e.version = layout.costVersion();
    const int nu = layout.numUnits();
    e.snap.resize(static_cast<std::size_t>(nu));
    for (UnitId u = 0; u < nu; ++u)
        e.snap[u] = layout.unitSignature(u);
}

bool
DistanceFieldCache::entryStillValid(const Entry &e, const Layout &layout,
                                    Relevance rel) const
{
    const int nu = layout.numUnits();
    if (static_cast<int>(e.snap.size()) != nu)
        return false;
    // Same instance: units whose epoch has not moved past the stamp
    // still carry the snapshotted state and can be skipped. A
    // different instance has an incomparable epoch clock, so every
    // unit is checked.
    const bool same_layout = e.layoutId == layout.instanceId();
    for (UnitId u = 0; u < nu; ++u) {
        if (same_layout && layout.unitEpoch(u) <= e.version)
            continue;
        const std::uint8_t cur = layout.unitSignature(u);
        if (rel == Relevance::Occupancy) {
            if (cur != e.snap[u])
                return false;
        } else {
            if ((cur == 3) != (e.snap[u] == 3))
                return false;
        }
    }
    return true;
}

template <typename Compute>
const ShortestPaths &
DistanceFieldCache::lookup(std::unordered_map<int, Entry> &entries,
                           int source, const Layout &layout, Relevance rel,
                           const Compute &compute)
{
    Entry &e = entries[source];
    if (!e.field.dist.empty()) {
        if (e.layoutId == layout.instanceId() &&
            e.version == layout.costVersion()) {
            ++hits_;
            return e.field;
        }
        if (entryStillValid(e, layout, rel)) {
            // No depended-on bit changed: adopt the new stamp so the
            // next lookup takes the O(1) path.
            stamp(e, layout);
            ++hits_;
            ++revalidations_;
            return e.field;
        }
    }
    e.field = compute(source, layout);
    stamp(e, layout);
    ++misses_;
    return e.field;
}

const ShortestPaths &
DistanceFieldCache::routing(SlotId source, const Layout &layout)
{
    return lookup(routing_, source, layout, Relevance::Occupancy,
                  [this](SlotId s, const Layout &l) {
                      return cost_->routingDistances(s, l);
                  });
}

const ShortestPaths &
DistanceFieldCache::mapping(SlotId source, const Layout &layout)
{
    return lookup(mapping_, source, layout, Relevance::Encoding,
                  [this](SlotId s, const Layout &l) {
                      return cost_->mappingDistances(s, l);
                  });
}

const ShortestPaths &
DistanceFieldCache::unit(UnitId source, const Layout &layout)
{
    return lookup(unit_, source, layout, Relevance::Encoding,
                  [this](UnitId u, const Layout &l) {
                      return cost_->unitDistances(u, l);
                  });
}

} // namespace qompress
