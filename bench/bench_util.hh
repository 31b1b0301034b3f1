/**
 * @file
 * Shared helpers for the figure/table reproduction benches: argument
 * parsing, size sweeps, ratio formatting, and the one definition of a
 * bit-identical compile artifact that the tests share.
 *
 * Every bench prints the rows/series of one paper table or figure.
 * Common flags: --quick (smaller sweeps), --csv (machine-readable),
 * --sizes=a,b,c (override the size sweep).
 */

#ifndef QOMPRESS_BENCH_BENCH_UTIL_HH
#define QOMPRESS_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "compiler/pipeline.hh"
#include "sim/statevector.hh"

namespace qompress::bench {

/** Parsed command-line options shared by all benches. */
struct BenchArgs
{
    bool quick = false;
    bool csv = false;
    std::vector<int> sizes;
    std::vector<std::string> extra;

    bool
    has(const std::string &flag) const
    {
        for (const auto &e : extra) {
            if (e == flag)
                return true;
        }
        return false;
    }
};

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quick") {
            args.quick = true;
        } else if (a == "--csv") {
            args.csv = true;
        } else if (a.rfind("--sizes=", 0) == 0) {
            for (const auto &tok : split(a.substr(8), ','))
                args.sizes.push_back(std::stoi(tok));
        } else {
            args.extra.push_back(a);
        }
    }
    return args;
}

/** The paper's size sweep (5 to 40); --quick halves it. */
inline std::vector<int>
defaultSizes(const BenchArgs &args)
{
    if (!args.sizes.empty())
        return args.sizes;
    if (args.quick)
        return {10, 20, 30};
    return {5, 10, 15, 20, 25, 30, 35, 40};
}

/** Render a value/baseline ratio like "1.43x". */
inline std::string
ratio(double value, double baseline)
{
    if (baseline <= 0.0)
        return "n/a";
    return format("%.3fx", value / baseline);
}

inline void
emit(const TablePrinter &table, const BenchArgs &args)
{
    if (args.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << '\n';
}

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "=== " << title << " ===\n"
              << paper_ref << "\n\n";
}

/** @name Artifact comparison: "bit-identical" for every test and
 *  bench that checks a cache tier, lane count, codec or calibration
 *  against a reference compile. @{ */

/** Bitwise double equality: NaN equals NaN, -0.0 differs from 0.0. */
inline bool
bitEq(double a, double b)
{
    std::uint64_t x, y;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

/**
 * The first field in which two compiled circuits differ, or "" when
 * they are bit-identical: the name, both layouts (shape, then every
 * qubit's slot), then every PhysGate field. Doubles compare bitwise.
 */
inline std::string
artifactDiff(const CompiledCircuit &a, const CompiledCircuit &b)
{
    if (a.name() != b.name())
        return "name";
    for (const bool final_ : {false, true}) {
        const Layout &la = final_ ? a.finalLayout() : a.initialLayout();
        const Layout &lb = final_ ? b.finalLayout() : b.initialLayout();
        const std::string which = final_ ? "final" : "initial";
        if (la.numQubits() != lb.numQubits() ||
            la.numUnits() != lb.numUnits())
            return which + " layout shape";
        for (QubitId q = 0; q < la.numQubits(); ++q) {
            if (la.slotOf(q) != lb.slotOf(q))
                return which + " layout slot of qubit " +
                       std::to_string(q);
        }
    }
    if (a.numGates() != b.numGates())
        return "gate count";
    for (int i = 0; i < a.numGates(); ++i) {
        const PhysGate &x = a.gates()[i];
        const PhysGate &y = b.gates()[i];
        const char *field = x.cls != y.cls           ? "cls"
            : x.slots != y.slots                     ? "slots"
            : x.logical != y.logical                 ? "logical"
            : x.logical2 != y.logical2               ? "logical2"
            : !bitEq(x.param, y.param)               ? "param"
            : !bitEq(x.param2, y.param2)             ? "param2"
            : x.isRouting != y.isRouting             ? "isRouting"
            : x.sourceGate != y.sourceGate           ? "sourceGate"
            : x.sourceGate2 != y.sourceGate2         ? "sourceGate2"
            : !bitEq(x.start, y.start)               ? "start"
            : !bitEq(x.duration, y.duration)         ? "duration"
            : !bitEq(x.fidelity, y.fidelity)         ? "fidelity"
                                                     : nullptr;
        if (field)
            return "gate " + std::to_string(i) + " " + field;
    }
    return "";
}

/** As above for whole compile results: the compiled circuit, the
 *  compressions, then every Metrics field. */
inline std::string
artifactDiff(const CompileResult &a, const CompileResult &b)
{
    const std::string circuit = artifactDiff(a.compiled, b.compiled);
    if (!circuit.empty())
        return circuit;
    if (a.compressions != b.compressions)
        return "compressions";
    const Metrics &x = a.metrics;
    const Metrics &y = b.metrics;
    const char *field = !bitEq(x.gateEps, y.gateEps) ? "gateEps"
        : !bitEq(x.coherenceEps, y.coherenceEps)     ? "coherenceEps"
        : !bitEq(x.readoutEps, y.readoutEps)         ? "readoutEps"
        : !bitEq(x.totalEps, y.totalEps)             ? "totalEps"
        : !bitEq(x.durationNs, y.durationNs)         ? "durationNs"
        : x.numGates != y.numGates                   ? "numGates"
        : x.numRoutingGates != y.numRoutingGates     ? "numRoutingGates"
        : x.numTwoUnitGates != y.numTwoUnitGates     ? "numTwoUnitGates"
        : x.numEncodedUnits != y.numEncodedUnits     ? "numEncodedUnits"
        : x.classHistogram != y.classHistogram       ? "classHistogram"
        : !bitEq(x.qubitTimeNs, y.qubitTimeNs)       ? "qubitTimeNs"
        : !bitEq(x.ququartTimeNs, y.ququartTimeNs)   ? "ququartTimeNs"
                                                     : nullptr;
    return field ? std::string("metrics ") + field : "";
}
/** @} */

/** @name Randomized mixed-radix fixtures shared by bench_hotpaths and
 *  the differential tests. @{ */

/** Haar-ish random k x k unitary via Gram-Schmidt of a Gaussian
 *  matrix -- enough structure to exercise dense kernels. */
inline GateMatrix
randomUnitary(std::size_t k, Rng &rng)
{
    GateMatrix m(k);
    for (std::size_t r = 0; r < k; ++r)
        for (std::size_t c = 0; c < k; ++c)
            m[r][c] = Cplx(rng.nextGaussian(), rng.nextGaussian());
    for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t prev = 0; prev < c; ++prev) {
            Cplx dot = 0.0;
            for (std::size_t r = 0; r < k; ++r)
                dot += std::conj(m[r][prev]) * m[r][c];
            for (std::size_t r = 0; r < k; ++r)
                m[r][c] -= dot * m[r][prev];
        }
        double norm = 0.0;
        for (std::size_t r = 0; r < k; ++r)
            norm += std::norm(m[r][c]);
        norm = std::sqrt(norm);
        for (std::size_t r = 0; r < k; ++r)
            m[r][c] /= norm;
    }
    return m;
}

/** Random normalized product state over the given dimensions. */
inline MixedRadixState
randomState(const std::vector<int> &dims, Rng &rng)
{
    std::vector<std::vector<Cplx>> unit_states;
    for (int d : dims) {
        std::vector<Cplx> s(static_cast<std::size_t>(d));
        double norm = 0.0;
        for (auto &amp : s) {
            amp = Cplx(rng.nextGaussian(), rng.nextGaussian());
            norm += std::norm(amp);
        }
        for (auto &amp : s)
            amp /= std::sqrt(norm);
        unit_states.push_back(std::move(s));
    }
    return MixedRadixState::product(unit_states);
}

/** Largest elementwise amplitude deviation between two states. */
inline double
maxAmpDiff(const MixedRadixState &a, const MixedRadixState &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a.amp(i) - b.amp(i)));
    return worst;
}

/** One gate of a random statevector workload. */
struct WorkloadGate
{
    std::vector<int> units;
    GateMatrix u;
};

/** Representative mixed-radix workload: one random single-qudit
 *  unitary per unit plus one random two-qudit unitary per adjacent
 *  pair (k = 4, 8, 16 depending on dims). */
inline std::vector<WorkloadGate>
mixedGateWorkload(const std::vector<int> &dims, Rng &rng)
{
    std::vector<WorkloadGate> gates;
    const int n = static_cast<int>(dims.size());
    for (int u = 0; u < n; ++u) {
        gates.push_back(
            {{u}, randomUnitary(static_cast<std::size_t>(dims[u]), rng)});
    }
    for (int u = 0; u + 1 < n; ++u) {
        const std::size_t k =
            static_cast<std::size_t>(dims[u]) * dims[u + 1];
        gates.push_back({{u, u + 1}, randomUnitary(k, rng)});
    }
    return gates;
}
/** @} */

} // namespace qompress::bench

#endif // QOMPRESS_BENCH_BENCH_UTIL_HH
