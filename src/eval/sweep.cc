#include "eval/sweep.hh"

#include <set>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "ir/passes.hh"
#include "service/compiler_service.hh"

namespace qompress {

namespace {

/** One materialized (family, size) circuit instance of a sweep. */
struct SweepInstance
{
    const std::string *family;
    int requestedSize;
    int paramRow; ///< -1 when the sweep has no parameter grid
    Circuit circuit;
    Topology device;
};

} // namespace

std::vector<SweepRecord>
runSweep(const SweepSpec &spec)
{
    QFATAL_IF(spec.families.empty() || spec.sizes.empty() ||
              spec.strategies.empty(),
              "sweep needs families, sizes, and strategies");
    for (const auto &row : spec.paramGrid)
        QFATAL_IF(row.empty(), "sweep parameter grid has an empty row");
    auto make_device = spec.device
        ? spec.device
        : [](const Circuit &c) { return Topology::grid(c.numQubits()); };

    // Phase 1 (serial): materialize every circuit instance in the
    // original family-major, size-ascending order, applying the
    // min-size and snapped-size-dedup rules. Circuit generation is
    // cheap next to the compiles; doing it up front yields a flat,
    // stable cell list the service can fan out over.
    std::vector<SweepInstance> instances;
    for (const auto &family_name : spec.families) {
        const auto &family = benchmarkFamily(family_name);
        std::set<int> seen_sizes; // families snap sizes downward
        for (int size : spec.sizes) {
            if (size < family.minQubits)
                continue;
            Circuit circuit = family.make(size);
            if (!seen_sizes.insert(circuit.numQubits()).second)
                continue;
            Topology device = make_device(circuit);
            if (spec.paramGrid.empty()) {
                instances.push_back({&family_name, size, -1,
                                     std::move(circuit),
                                     std::move(device)});
                continue;
            }
            // Parameter grid: one variant per row, rebinding the base
            // instance's angles positionally. Variants share the base
            // circuit's structure, so every row past the one that
            // compiles first is a template-tier rebind, not a compile.
            for (std::size_t row = 0; row < spec.paramGrid.size();
                 ++row) {
                instances.push_back({&family_name, size,
                                     static_cast<int>(row),
                                     bindParams(circuit,
                                                spec.paramGrid[row]),
                                     device});
            }
        }
    }

    // Phase 2: flatten to (instance x strategy) cells in the same
    // iteration order the serial loop used, and push the whole grid
    // through a sweep-local CompilerService batch. The service's
    // context pool plays the old per-lane-context role, but keyed by
    // content instead of lane: any cell over the same device/library/
    // config pricing reuses warmed distance fields, whichever lane
    // compiles it. Handles come back in request order, so records are
    // bit-identical at every lane count (and, by the cache invariant,
    // whichever pooled context serves a cell).
    std::vector<CompileRequest> reqs;
    struct CellRef
    {
        const SweepInstance *inst;
        const std::string *strategy;
    };
    std::vector<CellRef> cells;
    reqs.reserve(instances.size() * spec.strategies.size());
    cells.reserve(reqs.capacity());
    for (const auto &inst : instances) {
        for (const auto &strategy_name : spec.strategies) {
            reqs.push_back(CompileRequest::forCircuit(
                inst.circuit, inst.device, strategy_name, spec.config,
                spec.library));
            cells.push_back({&inst, &strategy_name});
        }
    }

    ServiceOptions sopts;
    // A figure sweep has no duplicate cells, so cap the memo at the
    // grid size (duplicate specs across repeated runSweep calls are
    // the caller's to memoize with a longer-lived service). Templates
    // sized likewise so an angle grid never thrashes its own tier.
    sopts.cacheCapacity = reqs.size();
    sopts.templateCacheCapacity = reqs.size();
    const int want =
        spec.threads >= 0 ? spec.threads : spec.config.threads;
    CompilerService service(sopts);
    auto handles = service.submitBatch(std::move(reqs), want);

    std::vector<SweepRecord> records(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SweepRecord rec;
        rec.family = *cells[i].inst->family;
        rec.strategy = *cells[i].strategy;
        rec.requestedSize = cells[i].inst->requestedSize;
        rec.paramRow = cells[i].inst->paramRow;
        try {
            const CompileArtifact res = handles[i].get();
            rec.qubits = cells[i].inst->circuit.numQubits();
            rec.metrics = res->metrics;
            rec.numCompressions =
                static_cast<int>(res->compressions.size());
        } catch (const FatalError &) {
            rec.qubits = 0; // did not fit
        }
        records[i] = std::move(rec);
    }
    if (spec.serviceStats)
        *spec.serviceStats = service.stats();
    return records;
}

std::vector<SweepRecord>
filterSweep(const std::vector<SweepRecord> &records,
            const std::string &family, const std::string &strategy)
{
    std::vector<SweepRecord> out;
    for (const auto &r : records) {
        if (r.family == family && r.strategy == strategy &&
            r.qubits > 0) {
            out.push_back(r);
        }
    }
    return out;
}

std::vector<double>
sweepRatios(const std::vector<SweepRecord> &records,
            const std::string &family, const std::string &strategy,
            const std::string &baseline,
            const std::function<double(const Metrics &)> &metric)
{
    const auto xs = filterSweep(records, family, strategy);
    const auto bs = filterSweep(records, family, baseline);
    std::vector<double> out;
    for (const auto &x : xs) {
        for (const auto &b : bs) {
            if (b.requestedSize == x.requestedSize) {
                const double denom = metric(b.metrics);
                if (denom > 0.0)
                    out.push_back(metric(x.metrics) / denom);
                break;
            }
        }
    }
    return out;
}

} // namespace qompress
