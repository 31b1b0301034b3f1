/**
 * @file
 * Command-line front end: compile an OpenQASM 2.0 circuit for a
 * mixed-radix ququart device and report the paper's success metrics.
 *
 *   qompress_cli circuit.qasm [options]
 *
 * Options:
 *   --strategy=NAME   qubit_only | fq | eqm | rb | awe | pp | ec |
 *                     ec_unordered | portfolio  (default: eqm)
 *   --all             compare every standard strategy
 *   --topology=KIND   grid | heavyhex | ring | line (default: grid)
 *   --device=FILE     custom coupling list ("u v" per line)
 *   --units=N         device size for ring/line/grid (default: fitted)
 *   --lookahead=W     router lookahead weight (default 0)
 *   --t1-scale=X      scale both T1 times by X
 *   --2q-error=E      qubit-only two-qubit gate error (Figure 9 knob)
 *   --optimize        run cancellation/rotation-merging passes first
 *   --verify          statevector equivalence check (small circuits)
 *   --dump            print the scheduled physical gate list
 *   --qasm            echo the parsed circuit back as QASM
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "ir/passes.hh"
#include "ir/qasm.hh"
#include "sim/equivalence.hh"
#include "strategies/strategy.hh"

using namespace qompress;

namespace {

struct CliOptions
{
    std::string file;
    std::string strategy = "eqm";
    std::string topology = "grid";
    std::string deviceFile;
    double lookahead = 0.0;
    int units = 0;
    double t1Scale = 1.0;
    double twoqError = 0.0;
    bool all = false;
    bool optimize = false;
    bool verify = false;
    bool dump = false;
    bool echoQasm = false;
};

void
usage()
{
    std::printf(
        "usage: qompress_cli circuit.qasm [--strategy=NAME] [--all]\n"
        "       [--topology=grid|heavyhex|ring|line] [--device=FILE]\n"
        "       [--units=N] [--lookahead=W] [--t1-scale=X]\n"
        "       [--2q-error=E] [--optimize] [--verify] [--dump]\n"
        "       [--qasm]\n");
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *prefix) {
            return a.substr(std::string(prefix).size());
        };
        if (a == "--all") {
            opts.all = true;
        } else if (a == "--optimize") {
            opts.optimize = true;
        } else if (a == "--verify") {
            opts.verify = true;
        } else if (a == "--dump") {
            opts.dump = true;
        } else if (a == "--qasm") {
            opts.echoQasm = true;
        } else if (a.rfind("--strategy=", 0) == 0) {
            opts.strategy = value("--strategy=");
        } else if (a.rfind("--topology=", 0) == 0) {
            opts.topology = value("--topology=");
        } else if (a.rfind("--device=", 0) == 0) {
            opts.deviceFile = value("--device=");
        } else if (numericFlag(a, "--lookahead", opts.lookahead, 0, 1e6) ||
                   numericFlag(a, "--units", opts.units, 1,
                               Topology::kMaxUnits) ||
                   numericFlag(a, "--t1-scale", opts.t1Scale, 1e-6, 1e6) ||
                   numericFlag(a, "--2q-error", opts.twoqError, 0, 1)) {
            // parsed into opts
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (!a.empty() && a[0] == '-') {
            QFATAL("unknown option '", a, "'");
        } else {
            QFATAL_IF(!opts.file.empty(), "multiple input files");
            opts.file = a;
        }
    }
    QFATAL_IF(opts.file.empty(), "no input file (see --help)");
    return opts;
}

void
report(const std::string &name, const CompileResult &res,
       TablePrinter &table)
{
    table.addRow({name, format("%zu", res.compressions.size()),
                  format("%d", res.metrics.numGates),
                  format("%d", res.metrics.numRoutingGates),
                  format("%.2f", res.metrics.durationNs / 1000.0),
                  format("%.4g", res.metrics.gateEps),
                  format("%.4g", res.metrics.coherenceEps),
                  format("%.4g", res.metrics.totalEps)});
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliOptions opts = parse(argc, argv);
        Circuit circuit = parseQasmFile(opts.file);
        if (opts.optimize)
            circuit = optimizeCircuit(circuit);
        if (opts.echoQasm)
            std::fputs(circuit.toQasm().c_str(), stdout);

        CompilerConfig cfg;
        cfg.lookaheadWeight = opts.lookahead;
        GateLibrary lib;
        if (opts.t1Scale != 1.0)
            lib.setT1(lib.t1Qubit() * opts.t1Scale,
                      lib.t1Ququart() * opts.t1Scale);
        if (opts.twoqError > 0.0)
            lib.setQubitGateError(opts.twoqError / 10.0,
                                  opts.twoqError);

        const Topology device =
            opts.deviceFile.empty()
                ? Topology::sized(opts.topology, opts.units > 0
                                                     ? opts.units
                                                     : circuit.numQubits())
                : Topology::fromFile(opts.deviceFile);
        std::printf("circuit '%s': %d qubits, %d gates; device %s "
                    "(%d units)\n\n",
                    circuit.name().c_str(), circuit.numQubits(),
                    circuit.numGates(), device.name().c_str(),
                    device.numUnits());

        TablePrinter table({"strategy", "pairs", "gates", "swaps",
                            "dur_us", "gate_eps", "coh_eps",
                            "total_eps"});
        CompileResult chosen;
        if (opts.all) {
            for (const auto &s : standardStrategies()) {
                try {
                    report(s->name(),
                           s->compile(circuit, device, lib, cfg), table);
                } catch (const FatalError &e) {
                    table.addRow({s->name(), "-", "-", "-", "-", "-",
                                  "-", "(does not fit)"});
                }
            }
            chosen = makeStrategy("portfolio")
                         ->compile(circuit, device, lib, cfg);
            report("portfolio", chosen, table);
        } else {
            chosen = makeStrategy(opts.strategy)
                         ->compile(circuit, device, lib, cfg);
            report(opts.strategy, chosen, table);
        }
        table.print(std::cout);

        if (opts.dump) {
            std::printf("\nscheduled physical gates:\n");
            for (const auto &g : chosen.compiled.gates())
                std::printf("  %8.0f ns  %s\n", g.start,
                            g.str().c_str());
        }
        if (opts.verify) {
            const auto rep = checkEquivalence(circuit, chosen.compiled);
            std::printf("\nequivalence: %s (max error %.2e)\n",
                        rep.ok ? "PASS" : rep.message.c_str(),
                        rep.maxError);
            if (!rep.ok)
                return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
