/**
 * @file
 * Hot-path benchmark: times the compute-heavy loops of the toolchain
 * -- mixed-radix statevector gate application, one GRAPE gradient
 * iteration (plus the per-segment fan-out at 2/4/8 lanes), the
 * Padé-13 vs Taylor family exponential, SWAP routing over the
 * expanded graph, full mapping+routing of the deep QAOA/heavy-hex
 * workload, the exhaustive strategy's candidate-pair sweep on
 * heavyHex65 (serial vs thread-pool fan-out at 2/4/8 lanes), the
 * evaluation-sweep cell fan-out at 1/2/4/8 lanes, the
 * CompilerService request path (cold vs warm-memo-cache batch
 * throughput at 1/2/4/8 lanes), the template tier (cold full
 * compiles vs parameter rebinds across a 20-point QAOA-40/heavyHex65
 * angle grid at 1/2/4/8 lanes), and the persistence tier (cold
 * compiles vs a disk-warm restart vs warm memo over the same request
 * catalog), and the device registry (strategy x zoo-device sweep via
 * CompileRequest::forDevice, with per-device timings and a totalEps
 * results table) -- against the retained
 * naive/uncached/serial reference paths in the same binary,
 * and emits machine-readable JSON with a "host" metadata object
 * (nproc, QOMPRESS_THREADS, build type) so snapshots from different
 * machines stay interpretable (the BENCH_*.json trajectory; compare
 * runs with tools/bench_diff.py --regress-threshold).
 *
 * Flags:
 *   --check      differential mode: assert optimized kernels agree
 *                with references (1e-10), that a warm serial GRAPE
 *                gradient step performs zero heap allocations (and a
 *                warm pooled one performs zero *per lane*), that the
 *                Padé-13 family exponential matches the Taylor
 *                reference to 1e-12 and beats it by >= 1.15x, that
 *                cached and direct-Dijkstra routing emit identical
 *                circuits, that
 *                the exhaustive search, the eval sweep, and the GRAPE
 *                gradient produce bit-identical results at every lane
 *                count, and that CompilerService requests are
 *                bit-identical to direct strategy compiles at every
 *                lane count with warm (memoized) batches beating cold
 *                ones by >= the memo cache's expected margin, and that
 *                template rebinds are bit-identical to full compiles
 *                of the same angle-grid instances while beating them
 *                by >= the rebind margin, and that a disk-warm
 *                restart decodes artifacts bit-identical to direct
 *                compiles while serving the catalog >= the
 *                persistence margin faster than cold compiles, and
 *                that registry-resolved device compiles are
 *                bit-identical to direct compiles on the registry
 *                topology, a neutral uniform calibration is
 *                bit-identical to no calibration, and a calibration
 *                install re-keys exactly its device (stale miss,
 *                fresh hit, unrelated warm hit, counter partition
 *                intact); exits nonzero on violation.
 *                Registered under ctest label "bench".
 *   --quick      smaller repetition counts.
 *   --out=FILE   also write the JSON to FILE.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "compiler/pipeline.hh"
#include "eval/sweep.hh"
#include "ir/passes.hh"
#include "pulse/grape.hh"
#include "pulse/hamiltonian.hh"
#include "pulse/targets.hh"
#include "service/compiler_service.hh"
#include "sim/statevector.hh"
#include "strategies/awe.hh"
#include "strategies/exhaustive.hh"

// ------------------------------------------------------------------
// Allocation-counting hook: every global operator new bumps a
// thread-local counter. Thread-local rather than a process-wide
// atomic for two reasons: once the thread pool exists in-process,
// worker threads may allocate (queue nodes, lane contexts)
// concurrently with the GRAPE zero-alloc window and a global counter
// would blame those allocations on the GRAPE step; and a shared
// atomic would put a contended RMW into every allocation during the
// multithreaded exhaustive sections this bench times.
// ------------------------------------------------------------------

static thread_local std::uint64_t t_alloc_count = 0;

// GCC cannot see that the replaced operator new below is malloc-backed
// and (once the counters perturb inlining) flags the free() in the
// matching operator delete as a mismatched pair; it is not.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    ++t_alloc_count;
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    ++t_alloc_count;
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace qompress;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of per-trial ratios. A same-run margin gated on one trial
 *  fails on a single scheduler stall; the median of >= 5 does not. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct SimResult
{
    double optimized_ms;
    double naive_ms;
    double max_diff;
};

SimResult
benchStatevector(int reps)
{
    Rng rng(12345);
    const std::vector<int> dims = {4, 2, 4, 2, 4, 2, 4, 2, 4, 2};
    const auto gates = bench::mixedGateWorkload(dims, rng);

    // Start both kernels from the same random product state.
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;

    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        for (const auto &g : gates)
            fast.applyUnitary(g.units, g.u);
    const double opt_s = secondsSince(t0);

    const auto t1 = Clock::now();
    for (int r = 0; r < reps; ++r)
        for (const auto &g : gates)
            slow.applyUnitaryNaive(g.units, g.u);
    const double naive_s = secondsSince(t1);

    return {1e3 * opt_s / reps, 1e3 * naive_s / reps,
            bench::maxAmpDiff(fast, slow)};
}

struct GrapeBenchResult
{
    double optimized_ms;
    double naive_ms;
    double max_grad_diff;
    std::uint64_t warm_allocs;
};

GrapeBenchResult
benchGrape(int reps)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);
    GrapeOptions opts;
    opts.threads = 1; // the serial baseline; lanes timed separately
    GrapeOptimizer grape(system, target, /*duration_ns=*/160.0,
                         /*segments=*/40, opts);

    Rng rng(99);
    std::vector<std::vector<double>> controls(
        grape.numControls(),
        std::vector<double>(grape.segments(), 0.0));
    const double amp = 0.25 * system.maxAmplitude();
    for (auto &row : controls)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);

    GrapeWorkspace ws;
    std::vector<std::vector<double>> grad, grad_naive;
    double fid = 0.0, leak = 0.0;

    // Warm-up sizes every workspace buffer; afterwards a gradient
    // step must not touch the heap. Measured on the thread-local
    // counter so concurrent pool-thread allocations cannot leak into
    // the window.
    grape.objectiveAndGradient(controls, grad, fid, leak, ws);
    const std::uint64_t before = t_alloc_count;
    grape.objectiveAndGradient(controls, grad, fid, leak, ws);
    const std::uint64_t warm_allocs = t_alloc_count - before;

    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
    const double opt_s = secondsSince(t0);

    const auto t1 = Clock::now();
    for (int r = 0; r < reps; ++r)
        grape.objectiveAndGradientNaive(controls, grad_naive, fid, leak);
    const double naive_s = secondsSince(t1);

    double worst = 0.0;
    for (std::size_t k = 0; k < grad.size(); ++k)
        for (std::size_t j = 0; j < grad[k].size(); ++j)
            worst = std::max(worst,
                             std::abs(grad[k][j] - grad_naive[k][j]));

    return {1e3 * opt_s / reps, 1e3 * naive_s / reps, worst,
            warm_allocs};
}

struct RouteBenchResult
{
    double cached_ms;
    double uncached_ms;
    bool identical;
    std::uint64_t gates;
};

RouteBenchResult
benchRouting(int reps)
{
    const Circuit bv = decomposeToNativeGates(bernsteinVazirani(20));
    const Topology topo = Topology::grid(20);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);
    const InteractionModel im(bv);

    MapperOptions mopts;
    const Layout initial = mapCircuit(bv, im, cost, mopts);

    RouterOptions cached_opts;
    cached_opts.lookaheadWeight = 0.5; // exercise the lookahead field
    cached_opts.useDistanceCache = true;
    RouterOptions uncached_opts = cached_opts;
    uncached_opts.useDistanceCache = false;

    auto route = [&](const RouterOptions &ropts) {
        Layout layout = initial;
        CompiledCircuit out(layout, "bv20");
        routeCircuit(bv, layout, cost, out, ropts);
        return out;
    };

    const auto t0 = Clock::now();
    CompiledCircuit cached_out;
    for (int r = 0; r < reps; ++r)
        cached_out = route(cached_opts);
    const double cached_s = secondsSince(t0);

    const auto t1 = Clock::now();
    CompiledCircuit uncached_out;
    for (int r = 0; r < reps; ++r)
        uncached_out = route(uncached_opts);
    const double uncached_s = secondsSince(t1);

    return {1e3 * cached_s / reps, 1e3 * uncached_s / reps,
            bench::artifactDiff(cached_out, uncached_out).empty(),
            static_cast<std::uint64_t>(cached_out.numGates())};
}

struct QaoaHhBenchResult
{
    double cached_ms;
    std::uint64_t gates;
    std::uint64_t cache_hits;
    std::uint64_t cache_misses;
    std::uint64_t cache_revalidations;
};

/**
 * The deep communication workload: mapping + routing of p-round
 * hardware-native QAOA over the 65-unit heavy-hex lattice, with AWE
 * compression pairs committed so placement flips encoded bits (the
 * regime where whole-cache version keying used to thrash and partial
 * invalidation pays off). Each run shares one CompileContext cache
 * between mapping and routing.
 */
QaoaHhBenchResult
benchQaoaHeavyHex(int reps, int rounds)
{
    const Circuit qaoa =
        decomposeToNativeGates(qaoaHeavyHex(40, rounds));
    const Topology topo = Topology::heavyHex65();
    const GateLibrary lib;
    const InteractionModel im(qaoa);

    CompilerConfig cfg;
    const auto pairs = AweStrategy().choosePairs(qaoa, topo, lib, cfg);

    MapperOptions mopts;
    mopts.pairs = pairs;

    std::uint64_t hits = 0, misses = 0, revalidations = 0;
    auto run = [&](bool collect_stats) {
        CompileContext ctx(topo, lib, cfg);
        Layout layout =
            mapCircuit(qaoa, im, ctx.cost(), mopts, ctx.cache());
        CompiledCircuit out(layout, "qaoa_hh");
        RouterOptions ropts;
        ropts.lookaheadWeight = 0.5;
        routeCircuit(qaoa, layout, ctx.cost(), out, ropts, ctx.cache());
        if (collect_stats) {
            hits = ctx.cacheStats().hits();
            misses = ctx.cacheStats().misses();
            revalidations = ctx.cacheStats().revalidations();
        }
        return out;
    };

    const auto t0 = Clock::now();
    CompiledCircuit out;
    for (int r = 0; r < reps; ++r)
        out = run(r == 0);
    const double cached_s = secondsSince(t0);

    return {1e3 * cached_s / reps,
            static_cast<std::uint64_t>(out.numGates()), hits, misses,
            revalidations};
}

struct ExhaustiveBenchResult
{
    double serial_ms; // 1 lane
    double t2_ms;
    double t4_ms;
    double t8_ms;
    bool identical; // same pairing at every lane count
    std::uint64_t pairs;
};

/**
 * The candidate-sweep workload: the exhaustive (ec) strategy on a
 * seeded QAOA circuit over heavyHex65, where every committed pair
 * costs O(n^2) full candidate compiles. One lane is the serial
 * baseline; 2/4/8 lanes fan the candidate compiles over the thread
 * pool with one CompileContext per lane. The sweep is embarrassingly
 * parallel, so on a machine with >= 4 cores the 4-lane run should
 * approach 4x; pairings must be bit-identical at every lane count
 * (deterministic serial reduction over candidate scores).
 */
ExhaustiveBenchResult
benchExhaustive(int qubits)
{
    const Circuit qaoa =
        decomposeToNativeGates(qaoaFromGraph(randomGraph(qubits, 0.4, 11)));
    const Topology topo = Topology::heavyHex65();
    const GateLibrary lib;
    const ExhaustiveStrategy ec;

    auto run = [&](int lanes, double &ms) {
        CompilerConfig cfg;
        cfg.lookaheadWeight = 0.5;
        cfg.threads = lanes;
        CompileContext ctx(topo, lib, cfg);
        const auto t0 = Clock::now();
        auto pairs = ec.choosePairs(qaoa, topo, lib, cfg, ctx);
        ms = 1e3 * secondsSince(t0);
        return pairs;
    };

    ExhaustiveBenchResult res{};
    // Discarded warmups: lanes=0 constructs and warms the process
    // pool (the one a run whose lane count equals the process default
    // will reuse) and lanes=8 pays allocator growth and cold caches on
    // the private-pool path, so the serial baseline that follows does
    // not absorb one-time process costs. A timed run whose lane count
    // differs from the process default still spawns its private pool
    // inside choosePairs — lanes-1 thread spawns, well under 1% of
    // the ~90 ms workload.
    double warmup_ms = 0.0;
    run(0, warmup_ms);
    run(8, warmup_ms);
    const auto p1 = run(1, res.serial_ms);
    const auto p2 = run(2, res.t2_ms);
    const auto p4 = run(4, res.t4_ms);
    const auto p8 = run(8, res.t8_ms);
    res.identical = p1 == p2 && p1 == p4 && p1 == p8;
    res.pairs = static_cast<std::uint64_t>(p1.size());
    return res;
}

struct SweepBenchResult
{
    double serial_ms;
    double t2_ms;
    double t4_ms;
    double t8_ms;
    bool identical; // records bit-identical at every lane count
    std::uint64_t cells;
};

bool
sameRecords(const std::vector<SweepRecord> &a,
            const std::vector<SweepRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const SweepRecord &x = a[i];
        const SweepRecord &y = b[i];
        if (x.family != y.family || x.strategy != y.strategy ||
            x.requestedSize != y.requestedSize ||
            x.qubits != y.qubits ||
            x.numCompressions != y.numCompressions ||
            x.metrics.gateEps != y.metrics.gateEps ||
            x.metrics.coherenceEps != y.metrics.coherenceEps ||
            x.metrics.totalEps != y.metrics.totalEps ||
            x.metrics.durationNs != y.metrics.durationNs ||
            x.metrics.numGates != y.metrics.numGates)
            return false;
    }
    return true;
}

/**
 * The evaluation-layer workload: a (family x size x strategy) grid —
 * the shape of every figure bench — compiled through runSweep at
 * 1/2/4/8 lanes. Cells land in pre-sized slots, so the records must
 * be bit-identical whatever the lane count.
 */
SweepBenchResult
benchSweep(int sizes_hi)
{
    SweepSpec spec;
    spec.families = {"bv", "qaoa_random"};
    spec.sizes = {8, sizes_hi};
    spec.strategies = {"qubit_only", "eqm", "rb", "awe", "pp"};
    spec.config.lookaheadWeight = 0.5;

    auto run = [&](int lanes, double &ms) {
        spec.threads = lanes;
        const auto t0 = Clock::now();
        auto records = runSweep(spec);
        ms = 1e3 * secondsSince(t0);
        return records;
    };

    SweepBenchResult res{};
    // Discarded warm-up: pays allocator growth, cold code paths, and
    // (when 8 happens to be the process default) the global pool's
    // spawn. Lane counts that differ from the process default still
    // construct and join their private pool inside each timed run —
    // lanes-1 thread spawns, which is real overhead the lane timings
    // deliberately include (it is what a caller of that lane count
    // pays per sweep).
    double warmup_ms = 0.0;
    run(8, warmup_ms);
    const auto r1 = run(1, res.serial_ms);
    const auto r2 = run(2, res.t2_ms);
    const auto r4 = run(4, res.t4_ms);
    const auto r8 = run(8, res.t8_ms);
    res.identical = sameRecords(r1, r2) && sameRecords(r1, r4) &&
                    sameRecords(r1, r8);
    res.cells = static_cast<std::uint64_t>(r1.size());
    return res;
}

struct GrapeLanesBenchResult
{
    double serial_ms;
    double t2_ms;
    double t4_ms;
    double t8_ms;
    bool identical; // objective+gradient bit-identical across lanes
    std::uint64_t warm_lane_allocs; // max per-lane allocs, warm call
};

/**
 * The per-segment GRAPE fan-out: the same CX2/40-segment gradient
 * iteration as the serial section, at 1/2/4/8 lanes. The per-lane
 * allocation probe (this binary's thread-local operator-new counter)
 * asserts the zero-alloc warm-iteration property holds for every
 * lane, not just the calling thread.
 */
GrapeLanesBenchResult
benchGrapeLanes(int reps)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);

    Rng rng(99);
    std::vector<std::vector<double>> controls;
    {
        GrapeOptions probe_opts;
        probe_opts.threads = 1;
        GrapeOptimizer probe(system, target, 160.0, 40, probe_opts);
        controls.assign(probe.numControls(),
                        std::vector<double>(probe.segments(), 0.0));
        const double amp = 0.25 * system.maxAmplitude();
        for (auto &row : controls)
            for (auto &v : row)
                v = rng.nextDouble(-amp, amp);
    }

    GrapeLanesBenchResult res{};
    std::vector<std::vector<double>> grad_serial;
    for (int lanes : {1, 2, 4, 8}) {
        GrapeOptions opts;
        opts.threads = lanes;
        GrapeOptimizer grape(system, target, 160.0, 40, opts);
        GrapeWorkspace ws;
        ws.allocProbe = [] { return t_alloc_count; };
        std::vector<std::vector<double>> grad;
        double fid = 0.0, leak = 0.0;
        // Two warm-ups: the first sizes shared buffers, the second
        // lets every lane touch (and size) its own scratch.
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        const auto t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        const double ms = 1e3 * secondsSince(t0) / reps;
        for (const auto allocs : ws.laneAllocs)
            res.warm_lane_allocs = std::max(res.warm_lane_allocs,
                                            allocs);
        switch (lanes) {
        case 1:
            res.serial_ms = ms;
            grad_serial = grad;
            res.identical = true;
            break;
        case 2:
            res.t2_ms = ms;
            break;
        case 4:
            res.t4_ms = ms;
            break;
        default:
            res.t8_ms = ms;
            break;
        }
        res.identical = res.identical && grad == grad_serial;
    }
    return res;
}

struct PadeBenchResult
{
    double pade_ms;   // expmFamilyInto (Padé-13) over all segments
    double taylor_ms; // expmFamilyIntoTaylor, same inputs
    double max_diff;  // worst elementwise deviation, eA and every dU
};

/**
 * The pulse-kernel microbench: one GRAPE sweep's worth of segment
 * generators (CX2, 40 segments, 4 drive directions), exponentiated by
 * the Padé-13 production kernel vs the retained Taylor
 * scaling-and-squaring reference.
 */
PadeBenchResult
benchPade(int reps)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);
    const int segments = 40;
    const double dt = 160.0 / segments;
    const auto &hc = system.controls();

    std::vector<CMatrix> bgen(hc.size());
    for (std::size_t k = 0; k < hc.size(); ++k)
        scaleInto(bgen[k], CMatrix::Scalar(0.0, -dt), hc[k]);
    Rng rng(99);
    const double amp = 0.25 * system.maxAmplitude();
    std::vector<CMatrix> agens;
    agens.reserve(segments);
    for (int j = 0; j < segments; ++j) {
        CMatrix h = system.drift();
        for (const auto &c : hc)
            h += c * CMatrix::Scalar(rng.nextDouble(-amp, amp));
        agens.push_back(h * CMatrix::Scalar(0.0, -dt));
    }

    ExpmFamilyWorkspace ws;
    CMatrix eA, eA_ref;
    std::vector<CMatrix> ds, ds_ref;
    PadeBenchResult res{};
    for (const auto &a : agens) { // warm both paths and diff them
        expmFamilyInto(eA, ds, a, bgen, ws);
        expmFamilyIntoTaylor(eA_ref, ds_ref, a, bgen, ws);
        for (int r = 0; r < eA.rows(); ++r)
            for (int c = 0; c < eA.cols(); ++c)
                res.max_diff = std::max(
                    res.max_diff, std::abs(eA(r, c) - eA_ref(r, c)));
        for (std::size_t k = 0; k < ds.size(); ++k)
            for (int r = 0; r < eA.rows(); ++r)
                for (int c = 0; c < eA.cols(); ++c)
                    res.max_diff = std::max(
                        res.max_diff,
                        std::abs(ds[k](r, c) - ds_ref[k](r, c)));
    }

    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        for (const auto &a : agens)
            expmFamilyInto(eA, ds, a, bgen, ws);
    res.pade_ms = 1e3 * secondsSince(t0) / reps;

    const auto t1 = Clock::now();
    for (int r = 0; r < reps; ++r)
        for (const auto &a : agens)
            expmFamilyIntoTaylor(eA_ref, ds_ref, a, bgen, ws);
    res.taylor_ms = 1e3 * secondsSince(t1) / reps;
    return res;
}

struct ServiceBenchResult
{
    double cold_t1_ms, cold_t2_ms, cold_t4_ms, cold_t8_ms;
    double warm_t1_ms, warm_t2_ms, warm_t4_ms, warm_t8_ms;
    bool identical; // service artifacts == direct strategy compiles
    std::uint64_t requests; // distinct requests per pass
    std::uint64_t hits;     // memo hits observed at 1 lane
    std::uint64_t misses;   // memo misses observed at 1 lane
};

/** Warm batches must beat cold ones at least this much (they skip the
 *  whole pipeline: a warm request is request fingerprinting plus one
 *  locked map lookup). Asserted under --check. */
constexpr double kServiceWarmMargin = 5.0;

/**
 * The service-front-end workload: a (family x size x strategy)
 * request grid -- the redundant-compile shape of every evaluation
 * sweep -- issued twice through a CompilerService at each lane count.
 * The cold pass (memo cleared) measures request-path compile
 * throughput; the warm pass measures memoized request throughput.
 * Artifacts must be bit-identical to direct strategy compiles at
 * every lane count, and the warm pass must beat the cold one by the
 * memo cache's expected margin.
 */
ServiceBenchResult
benchService(int reps, int sizes_hi)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    std::vector<CompileRequest> reqs;
    std::vector<CompileResult> direct;
    for (const char *family : {"bv", "qaoa_random"}) {
        for (int size : {8, sizes_hi}) {
            const Circuit circuit = benchmarkFamily(family).make(size);
            const Topology topo = Topology::grid(circuit.numQubits());
            for (const char *strat : {"eqm", "rb", "awe"}) {
                reqs.push_back(CompileRequest::forCircuit(
                    circuit, topo, strat, cfg, lib));
                direct.push_back(makeStrategy(strat)->compile(
                    circuit, topo, lib, cfg));
            }
        }
    }

    ServiceBenchResult res{};
    res.identical = true;
    res.requests = static_cast<std::uint64_t>(reqs.size());
    for (int lanes : {1, 2, 4, 8}) {
        ServiceOptions sopts;
        sopts.threads = lanes;
        CompilerService service(sopts);

        auto run_pass = [&](double &ms_acc,
                            std::vector<CompileArtifact> *out) {
            const auto t0 = Clock::now();
            auto handles = service.submitBatch(reqs, lanes);
            for (std::size_t i = 0; i < handles.size(); ++i) {
                CompileArtifact a = handles[i].get();
                if (out)
                    (*out)[i] = std::move(a);
            }
            ms_acc += 1e3 * secondsSince(t0);
        };

        // Discarded warm-up: spawns the lane pool, grows the
        // allocator, and populates the memo once.
        double discard = 0.0;
        run_pass(discard, nullptr);

        double cold_ms = 0.0, warm_ms = 0.0;
        std::vector<CompileArtifact> artifacts(reqs.size());
        // Warm passes are microseconds; batch them per cold rep so the
        // timer sees a stable window.
        const int warm_iters = 20;
        for (int r = 0; r < reps; ++r) {
            service.clearCache(); // drop artifacts AND pooled contexts
            run_pass(cold_ms, r == 0 ? &artifacts : nullptr);
            double warm_acc = 0.0;
            for (int w = 0; w < warm_iters; ++w)
                run_pass(warm_acc, nullptr);
            warm_ms += warm_acc / warm_iters;
        }
        cold_ms /= reps;
        warm_ms /= reps;

        for (std::size_t i = 0; i < artifacts.size(); ++i) {
            res.identical = res.identical &&
                bench::artifactDiff(*artifacts[i], direct[i]).empty();
        }
        switch (lanes) {
        case 1: {
            res.cold_t1_ms = cold_ms;
            res.warm_t1_ms = warm_ms;
            const ServiceStats stats = service.stats();
            res.hits = stats.hits;
            res.misses = stats.misses;
            break;
        }
        case 2:
            res.cold_t2_ms = cold_ms;
            res.warm_t2_ms = warm_ms;
            break;
        case 4:
            res.cold_t4_ms = cold_ms;
            res.warm_t4_ms = warm_ms;
            break;
        default:
            res.cold_t8_ms = cold_ms;
            res.warm_t8_ms = warm_ms;
            break;
        }
    }
    return res;
}

struct TemplateBenchResult
{
    double cold_t1_ms, cold_t2_ms, cold_t4_ms, cold_t8_ms;
    double rebind_t1_ms, rebind_t2_ms, rebind_t4_ms, rebind_t8_ms;
    double rebind_speedup;  // median over reps of cold/rebind at 1 lane
    bool identical;         // rebound artifacts == full-compile artifacts
    std::uint64_t angles;   // grid points per pass
    std::uint64_t template_hits;   // tier counters observed at 1 lane
    std::uint64_t template_misses;
};

/** A template rebind skips mapping, routing, and scheduling entirely
 *  (deep-copy + O(gates) parameter patch + metrics re-price), so it
 *  must beat a cold full compile of the same instance by at least
 *  this factor on the angle-sweep workload. Asserted under --check. */
constexpr double kTemplateRebindMargin = 10.0;

/**
 * The parameterized-sweep workload: a >= 20-point angle grid over the
 * QAOA-40/heavyHex65 circuit (one structure, varying rotation
 * angles), issued through a CompilerService at each lane count. The
 * cold pass forces full compiles via CompileRequest::fullCompile (and
 * clears the memo between reps, so every point pays the whole
 * pipeline); the rebind pass warms one template with a single
 * full compile of an off-grid exemplar, then serves the entire grid
 * from the template tier. Rebound artifacts must be bit-identical to
 * the full compiles of the same instances.
 */
TemplateBenchResult
benchTemplate(int reps, int rounds, int num_angles)
{
    const Circuit base = qaoaHeavyHex(40, rounds);
    const Topology topo = Topology::heavyHex65();
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    const char *strat = "awe";

    // The angle grid (distinct points, none equal to the exemplar's),
    // bound positionally over the base structure.
    const Circuit exemplar = bindParams(base, {0.77, 1.31});
    std::vector<CompileRequest> full_reqs, rebind_reqs;
    for (int i = 0; i < num_angles; ++i) {
        const Circuit inst = bindParams(
            base, {0.11 + 0.143 * i, 2.93 - 0.117 * i});
        auto req =
            CompileRequest::forCircuit(inst, topo, strat, cfg, lib);
        rebind_reqs.push_back(req);
        req.fullCompile = true;
        full_reqs.push_back(std::move(req));
    }

    TemplateBenchResult res{};
    res.identical = true;
    res.angles = static_cast<std::uint64_t>(num_angles);
    for (int lanes : {1, 2, 4, 8}) {
        ServiceOptions sopts;
        sopts.threads = lanes;
        CompilerService service(sopts);

        // Milliseconds for one pass over @p reqs.
        auto run_pass = [&](const std::vector<CompileRequest> &reqs,
                            std::vector<CompileArtifact> *out) {
            const auto t0 = Clock::now();
            auto handles = service.submitBatch(reqs, lanes);
            for (std::size_t i = 0; i < handles.size(); ++i) {
                CompileArtifact a = handles[i].get();
                if (out)
                    (*out)[i] = std::move(a);
            }
            return 1e3 * secondsSince(t0);
        };

        // Discarded warm-up: spawns the lane pool and grows the
        // allocator on the compile-heavy path.
        run_pass(full_reqs, nullptr);

        double cold_ms = 0.0, rebind_ms = 0.0;
        std::vector<double> ratios;
        std::vector<CompileArtifact> cold(full_reqs.size());
        std::vector<CompileArtifact> rebound(rebind_reqs.size());
        for (int r = 0; r < reps; ++r) {
            // Cold: every grid point pays the full pipeline (the memo
            // was cleared, and fullCompile bypasses the templates).
            service.clearCache();
            const double c = run_pass(full_reqs, r == 0 ? &cold : nullptr);
            // Rebind: one off-grid full compile plants the template
            // (untimed), then the whole grid rides it.
            service.clearCache();
            service.compileSync(CompileRequest::forCircuit(
                exemplar, topo, strat, cfg, lib));
            const double b =
                run_pass(rebind_reqs, r == 0 ? &rebound : nullptr);
            cold_ms += c;
            rebind_ms += b;
            ratios.push_back(b > 0.0 ? c / b : 0.0);
        }
        cold_ms /= reps;
        rebind_ms /= reps;

        for (std::size_t i = 0; i < rebound.size(); ++i) {
            res.identical = res.identical &&
                bench::artifactDiff(*rebound[i], *cold[i]).empty();
        }
        switch (lanes) {
        case 1: {
            res.cold_t1_ms = cold_ms;
            res.rebind_t1_ms = rebind_ms;
            res.rebind_speedup = median(ratios);
            const ServiceStats stats = service.stats();
            res.template_hits = stats.templateHits;
            res.template_misses = stats.templateMisses;
            break;
        }
        case 2:
            res.cold_t2_ms = cold_ms;
            res.rebind_t2_ms = rebind_ms;
            break;
        case 4:
            res.cold_t4_ms = cold_ms;
            res.rebind_t4_ms = rebind_ms;
            break;
        default:
            res.cold_t8_ms = cold_ms;
            res.rebind_t8_ms = rebind_ms;
            break;
        }
    }
    return res;
}

struct PersistBenchResult
{
    double cold_ms; // no store, memo cleared per pass: full pipeline
    double disk_ms; // store warm, memo cleared per pass: decode path
    double memo_ms; // memo warm: request fingerprint + map lookup
    double disk_speedup; // median over trials of cold/disk
    bool identical; // disk-loaded artifacts == direct strategy compiles
    std::uint64_t requests;    // catalog size per pass
    std::uint64_t disk_hits;   // observed on the warm-restarted service
    std::uint64_t disk_writes; // records written while priming
    std::uint64_t store_bytes; // log size after priming
};

/** A disk-warm service must serve the catalog at least this much
 *  faster than cold compiles: a disk hit is one pread + CRC check +
 *  decode, with mapping/routing/scheduling all skipped. Asserted
 *  under --check. */
constexpr double kPersistDiskWarmMargin = 5.0;

/**
 * The persistence-tier workload: the same (family x size x strategy)
 * catalog as the service section, served three ways. Cold pays the
 * full pipeline per pass (no store, memo dropped). Disk-warm primes
 * an artifact store once, then boots a *fresh* service on it -- the
 * warm-restart path -- and serves every pass from the disk tier with
 * the memo dropped between passes. Memo-warm serves from the
 * in-memory tier on the same service. Disk-loaded artifacts must be
 * bit-identical to direct strategy compiles.
 */
PersistBenchResult
benchPersist(int reps, int sizes_hi)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    // Sizes start at 12: compile cost grows superlinearly with size
    // while decode stays linear, so larger circuits keep the
    // disk-warm margin comfortably clear of timer noise.
    std::vector<CompileRequest> reqs;
    std::vector<CompileResult> direct;
    for (const char *family : {"bv", "qaoa_random"}) {
        for (int size : {12, sizes_hi}) {
            const Circuit circuit = benchmarkFamily(family).make(size);
            const Topology topo = Topology::grid(circuit.numQubits());
            for (const char *strat : {"eqm", "rb", "awe"}) {
                reqs.push_back(CompileRequest::forCircuit(
                    circuit, topo, strat, cfg, lib));
                direct.push_back(makeStrategy(strat)->compile(
                    circuit, topo, lib, cfg));
            }
        }
    }

    const std::string store_path =
        "bench_hotpaths_store_" + std::to_string(::getpid()) + ".qst";
    std::remove(store_path.c_str());

    PersistBenchResult res{};
    res.identical = true;
    res.requests = static_cast<std::uint64_t>(reqs.size());

    // Synchronous passes: the tiers differ in decode-vs-compile cost,
    // which batch/pool dispatch overhead would mask at this scale.
    // Each returns its milliseconds.
    auto run_pass = [&](CompilerService &service,
                        std::vector<CompileArtifact> *out) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            CompileArtifact a = service.compileSync(reqs[i]);
            if (out)
                (*out)[i] = std::move(a);
        }
        return 1e3 * secondsSince(t0);
    };

    // Cold baseline: no store, memo dropped before every timed pass.
    ServiceOptions cold_opts;
    cold_opts.threads = 1;
    CompilerService cold_service(cold_opts);
    run_pass(cold_service, nullptr); // allocator/context warm-up

    // Prime the store: one pass on a store-backed service writes the
    // whole catalog behind the misses.
    {
        ServiceOptions sopts;
        sopts.threads = 1;
        sopts.storePath = store_path;
        CompilerService service(sopts);
        run_pass(service, nullptr);
        const ServiceStats stats = service.stats();
        res.disk_writes = stats.diskWrites;
        res.store_bytes = stats.storeBytes;
    }

    // Warm restart: a fresh service on the primed store. Each trial
    // times one cold pass and, back to back, a disk batch that drops
    // the memo before every pass so each request rides the disk tier
    // (microseconds-scale passes, batched for a stable timer window);
    // the margin is the median of the per-trial ratios. The memo
    // passes afterwards ride the in-memory tier.
    {
        ServiceOptions sopts;
        sopts.threads = 1;
        sopts.storePath = store_path;
        CompilerService service(sopts);
        constexpr int kDiskPassesPerTrial = 20;
        std::vector<CompileArtifact> artifacts(reqs.size());
        std::vector<double> ratios;
        for (int r = 0; r < reps; ++r) {
            cold_service.clearCache();
            const double cold = run_pass(cold_service, nullptr);
            double disk = 0.0;
            for (int it = 0; it < kDiskPassesPerTrial; ++it) {
                service.clearCache(); // drops memo+templates, not the store
                disk += run_pass(service, r == 0 && it == 0 ? &artifacts
                                                            : nullptr);
            }
            disk /= kDiskPassesPerTrial;
            res.cold_ms += cold;
            res.disk_ms += disk;
            ratios.push_back(disk > 0.0 ? cold / disk : 0.0);
        }
        res.cold_ms /= reps;
        res.disk_ms /= reps;
        res.disk_speedup = median(ratios);

        // ~micros each; drown scheduler jitter
        const int memo_iters = reps * kDiskPassesPerTrial * 5;
        double memo_ms = 0.0;
        for (int it = 0; it < memo_iters; ++it)
            memo_ms += run_pass(service, nullptr);
        res.memo_ms = memo_ms / memo_iters;

        const ServiceStats stats = service.stats();
        res.disk_hits = stats.diskHits;
        for (std::size_t i = 0; i < artifacts.size(); ++i) {
            res.identical = res.identical &&
                bench::artifactDiff(*artifacts[i], direct[i]).empty();
        }
    }

    std::remove(store_path.c_str());
    return res;
}

struct DeviceBenchResult
{
    std::string table;      ///< JSON rows: per device x strategy
    bool identical;         ///< registry path == direct compiles
    bool neutral_identical; ///< neutral uniform cal == no cal
    bool invalidation_ok;   ///< stale miss, fresh hit, unrelated hit
    bool partition_ok;      ///< requests == hits+tmpl+disk+misses+coal
    std::uint64_t devices;  ///< zoo devices swept
};

/**
 * The device-registry workload: a strategy x zoo-device sweep, every
 * request resolved by name through CompileRequest::forDevice (registry
 * topology + current calibration). Each cell is timed cold and its
 * totalEps lands in the results table -- the per-device counterpart of
 * the figure sweeps, over topologies from 23 to 127 units. The
 * differential legs pin the subsystem's two contracts: resolution is
 * free of semantic drift (registry compiles bit-identical to direct
 * compiles on the registry topology; a neutral uniform calibration
 * bit-identical to none), and a calibration install re-keys exactly
 * its own device (stale miss then fresh hit, the unrelated device's
 * warm entry survives, the counter partition stays intact).
 */
DeviceBenchResult
benchDevices(int reps)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    const Circuit circuit = bernsteinVazirani(16);
    const char *strategies[] = {"eqm", "rb", "awe"};
    const char *devices[] = {"falcon27",    "heavyhex23", "heavyhex65",
                             "heavyhex127", "ring65",     "grid64"};

    DeviceBenchResult res{};
    res.identical = true;
    res.devices = std::size(devices);

    CompilerService service;
    char row[256];
    for (const char *dev : devices) {
        const Device d = service.devices().get(dev);
        for (const char *strat : strategies) {
            double ms = 0.0;
            CompileArtifact art;
            for (int r = 0; r < reps; ++r) {
                service.clearCache();
                const auto t0 = Clock::now();
                art = service.compileSync(CompileRequest::forDevice(
                    circuit, dev, strat, cfg, lib));
                ms += 1e3 * secondsSince(t0);
            }
            ms /= reps;
            const CompileResult direct = makeStrategy(strat)->compile(
                circuit, d.topology, lib, cfg);
            res.identical =
                res.identical && bench::artifactDiff(*art, direct).empty();
            std::snprintf(row, sizeof row,
                          "    \"device_%s_%s_ms\": %.4f,\n"
                          "    \"device_%s_%s_eps\": %.6f,\n",
                          dev, strat, ms, dev, strat,
                          art->metrics.totalEps);
            res.table += row;
        }
    }

    // Neutral-calibration differential: a uniform record carrying the
    // library constants (zero readout, no edge scales) must price
    // every gate exactly like no calibration at all.
    {
        const Device d = service.devices().get("heavyhex65");
        CompilerConfig neutral = cfg;
        neutral.calibration =
            std::make_shared<const DeviceCalibration>(
                DeviceCalibration::uniform(
                    d.topology.name(), d.topology.numUnits(),
                    GateLibrary::kT1QubitNs,
                    GateLibrary::kT1QuquartNs));
        const CompileResult plain = makeStrategy("eqm")->compile(
            circuit, d.topology, lib, cfg);
        const CompileResult cal = makeStrategy("eqm")->compile(
            circuit, d.topology, lib, neutral);
        res.neutral_identical = bench::artifactDiff(plain, cal).empty();
    }

    // Invalidation differential on a fresh service (clean counters):
    // warm two devices, install a calibration on one, and read the
    // exact miss/hit trajectory off the counters.
    {
        CompilerService svc;
        auto req = [&](const char *dev) {
            return CompileRequest::forDevice(circuit, dev, "eqm", cfg,
                                             lib);
        };
        svc.compileSync(req("falcon27")); // miss (cold)
        svc.compileSync(req("ring65"));   // miss (cold)
        svc.compileSync(req("falcon27")); // hit  (warm)
        svc.devices().setCalibration(
            "falcon27",
            DeviceCalibration::uniform("falcon27", 27, 100000.0,
                                       30000.0, 0.01));
        svc.compileSync(req("falcon27")); // miss (stale key)
        svc.compileSync(req("falcon27")); // hit  (fresh entry)
        svc.compileSync(req("ring65"));   // hit  (unrelated survives)
        const ServiceStats st = svc.stats();
        res.invalidation_ok = st.misses == 3 && st.hits == 3;
        res.partition_ok = st.requests == st.hits + st.templateHits +
                                              st.diskHits + st.misses +
                                              st.coalesced;
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    using qompress::bench::parseArgs;
    const auto args = parseArgs(argc, argv);
    const bool check = args.has("--check");
    std::string out_path;
    for (const auto &e : args.extra) {
        if (e.rfind("--out=", 0) == 0)
            out_path = e.substr(6);
    }

    const int sim_reps = check ? 3 : (args.quick ? 10 : 40);
    const int grape_reps = check ? 2 : (args.quick ? 5 : 20);
    const int route_reps = check ? 1 : (args.quick ? 3 : 10);
    const int qaoa_reps = check ? 1 : (args.quick ? 2 : 5);
    const int qaoa_rounds = check ? 1 : 3;
    const int exh_qubits = check ? 6 : (args.quick ? 8 : 12);
    const int sweep_hi = check ? 10 : (args.quick ? 10 : 14);
    const int grape_lane_reps = check ? 3 : (args.quick ? 5 : 20);
    // The Padé/Taylor ratio gates --check, so keep its rep count high
    // enough to be stable even there (~tens of ms per path).
    const int pade_reps = args.quick ? 20 : 40;
    // The warm/cold service ratio also gates --check; the margin is
    // wide (kServiceWarmMargin vs a real ~100x), so small rep counts
    // stay safe.
    const int service_reps = check ? 2 : (args.quick ? 2 : 4);
    const int service_hi = check ? 10 : (args.quick ? 12 : 14);
    // The rebind/cold and disk-warm/cold ratios gate --check, each as
    // the median of per-trial ratios: single trials read ~9-18x and
    // ~5-11x against margins of 10x and 5x, so one stalled pass could
    // fail them. Every mode runs >= 5 trials.
    const int template_reps = args.quick || check ? 5 : 7;
    const int template_rounds = check ? 1 : 2;
    const int template_angles = 20;
    const int persist_reps = args.quick || check ? 5 : 7;
    // Must differ from the grid's base size (12) in every mode: equal
    // sizes would collapse the catalog to duplicate keys, which the
    // write-behind dedup guard would surface as disk_writes < requests.
    const int persist_hi = args.quick || check ? 16 : 18;
    // The device sweep's gates are identity differentials, not timing
    // ratios, so one rep suffices under --check. Timed modes rep
    // higher than the other sections: the cells are ~1 ms compiles,
    // cheap enough that averaging down the timer noise costs little,
    // and the device_ section gates at 10% in CI.
    const int device_reps = check ? 1 : (args.quick ? 5 : 10);

    const SimResult sim = benchStatevector(sim_reps);
    const GrapeBenchResult gr = benchGrape(grape_reps);
    const RouteBenchResult rt = benchRouting(route_reps);
    const QaoaHhBenchResult qh = benchQaoaHeavyHex(qaoa_reps, qaoa_rounds);
    const ExhaustiveBenchResult ex = benchExhaustive(exh_qubits);
    const SweepBenchResult sw = benchSweep(sweep_hi);
    const GrapeLanesBenchResult gl = benchGrapeLanes(grape_lane_reps);
    const PadeBenchResult pd = benchPade(pade_reps);
    const ServiceBenchResult sv = benchService(service_reps, service_hi);
    const TemplateBenchResult tm =
        benchTemplate(template_reps, template_rounds, template_angles);
    const PersistBenchResult ps = benchPersist(persist_reps, persist_hi);
    const DeviceBenchResult dv = benchDevices(device_reps);

    const double sim_speedup =
        sim.optimized_ms > 0.0 ? sim.naive_ms / sim.optimized_ms : 0.0;
    const double grape_speedup =
        gr.optimized_ms > 0.0 ? gr.naive_ms / gr.optimized_ms : 0.0;
    const double route_speedup =
        rt.cached_ms > 0.0 ? rt.uncached_ms / rt.cached_ms : 0.0;
    const double exh_speedup_t4 =
        ex.t4_ms > 0.0 ? ex.serial_ms / ex.t4_ms : 0.0;
    const double sweep_speedup_t4 =
        sw.t4_ms > 0.0 ? sw.serial_ms / sw.t4_ms : 0.0;
    const double grape_seg_speedup_t4 =
        gl.t4_ms > 0.0 ? gl.serial_ms / gl.t4_ms : 0.0;
    const double pade_speedup =
        pd.pade_ms > 0.0 ? pd.taylor_ms / pd.pade_ms : 0.0;
    const double service_warm_speedup =
        sv.warm_t1_ms > 0.0 ? sv.cold_t1_ms / sv.warm_t1_ms : 0.0;
    const double template_rebind_speedup = tm.rebind_speedup;
    const double persist_disk_speedup = ps.disk_speedup;
    const double persist_memo_speedup =
        ps.memo_ms > 0.0 ? ps.cold_ms / ps.memo_ms : 0.0;

    const char *qt_env = std::getenv("QOMPRESS_THREADS");
#ifndef QOMPRESS_BUILD_TYPE
#define QOMPRESS_BUILD_TYPE "unknown"
#endif

    char buf[32768]; // headroom for the dynamic device table
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"bench\": \"hotpaths\",\n"
        "  \"host\": {\n"
        "    \"nproc\": %u,\n"
        "    \"qompress_threads\": \"%s\",\n"
        "    \"build_type\": \"%s\"\n"
        "  },\n"
        "  \"metrics\": {\n"
        "    \"statevector_apply_ms\": %.4f,\n"
        "    \"statevector_naive_ms\": %.4f,\n"
        "    \"statevector_speedup\": %.3f,\n"
        "    \"statevector_max_diff\": %.3e,\n"
        "    \"grape_gradient_ms\": %.4f,\n"
        "    \"grape_gradient_naive_ms\": %.4f,\n"
        "    \"grape_speedup\": %.3f,\n"
        "    \"grape_max_grad_diff\": %.3e,\n"
        "    \"grape_warm_allocs\": %llu,\n"
        "    \"route_bv20_cached_ms\": %.4f,\n"
        "    \"route_bv20_uncached_ms\": %.4f,\n"
        "    \"route_speedup\": %.3f,\n"
        "    \"route_gates\": %llu,\n"
        "    \"route_identical\": %s,\n"
        "    \"qaoa_hh_cached_ms\": %.4f,\n"
        "    \"qaoa_hh_gates\": %llu,\n"
        "    \"qaoa_hh_cache_hits\": %llu,\n"
        "    \"qaoa_hh_cache_misses\": %llu,\n"
        "    \"qaoa_hh_cache_revalidations\": %llu,\n"
        "    \"exhaustive_hh_serial_ms\": %.4f,\n"
        "    \"exhaustive_hh_t2_ms\": %.4f,\n"
        "    \"exhaustive_hh_t4_ms\": %.4f,\n"
        "    \"exhaustive_hh_t8_ms\": %.4f,\n"
        "    \"exhaustive_hh_speedup_t4\": %.3f,\n"
        "    \"exhaustive_hh_pairs\": %llu,\n"
        "    \"exhaustive_hh_identical\": %s,\n"
        "    \"sweep_serial_ms\": %.4f,\n"
        "    \"sweep_t2_ms\": %.4f,\n"
        "    \"sweep_t4_ms\": %.4f,\n"
        "    \"sweep_t8_ms\": %.4f,\n"
        "    \"sweep_speedup_t4\": %.3f,\n"
        "    \"sweep_cells\": %llu,\n"
        "    \"sweep_identical\": %s,\n"
        "    \"grape_seg_serial_ms\": %.4f,\n"
        "    \"grape_seg_t2_ms\": %.4f,\n"
        "    \"grape_seg_t4_ms\": %.4f,\n"
        "    \"grape_seg_t8_ms\": %.4f,\n"
        "    \"grape_seg_speedup_t4\": %.3f,\n"
        "    \"grape_seg_warm_lane_allocs\": %llu,\n"
        "    \"grape_seg_identical\": %s,\n"
        "    \"expm_pade_ms\": %.4f,\n"
        "    \"expm_taylor_ms\": %.4f,\n"
        "    \"expm_pade_speedup\": %.3f,\n"
        "    \"expm_pade_max_diff\": %.3e,\n"
        "    \"service_cold_t1_ms\": %.4f,\n"
        "    \"service_cold_t2_ms\": %.4f,\n"
        "    \"service_cold_t4_ms\": %.4f,\n"
        "    \"service_cold_t8_ms\": %.4f,\n"
        "    \"service_warm_t1_ms\": %.4f,\n"
        "    \"service_warm_t2_ms\": %.4f,\n"
        "    \"service_warm_t4_ms\": %.4f,\n"
        "    \"service_warm_t8_ms\": %.4f,\n"
        "    \"service_warm_speedup\": %.3f,\n"
        "    \"service_requests\": %llu,\n"
        "    \"service_hits\": %llu,\n"
        "    \"service_misses\": %llu,\n"
        "    \"service_identical\": %s,\n"
        "    \"template_cold_t1_ms\": %.4f,\n"
        "    \"template_cold_t2_ms\": %.4f,\n"
        "    \"template_cold_t4_ms\": %.4f,\n"
        "    \"template_cold_t8_ms\": %.4f,\n"
        "    \"template_rebind_t1_ms\": %.4f,\n"
        "    \"template_rebind_t2_ms\": %.4f,\n"
        "    \"template_rebind_t4_ms\": %.4f,\n"
        "    \"template_rebind_t8_ms\": %.4f,\n"
        "    \"template_rebind_speedup\": %.3f,\n"
        "    \"template_angles\": %llu,\n"
        "    \"template_hits\": %llu,\n"
        "    \"template_misses\": %llu,\n"
        "    \"template_identical\": %s,\n"
        "    \"persist_cold_ms\": %.4f,\n"
        "    \"persist_disk_ms\": %.4f,\n"
        "    \"persist_memo_ms\": %.4f,\n"
        "    \"persist_disk_speedup\": %.3f,\n"
        "    \"persist_memo_speedup\": %.3f,\n"
        "    \"persist_requests\": %llu,\n"
        "    \"persist_disk_hits\": %llu,\n"
        "    \"persist_disk_writes\": %llu,\n"
        "    \"persist_store_bytes\": %llu,\n"
        "    \"persist_identical\": %s,\n"
        "%s" // the device results table (dynamic: device x strategy)
        "    \"device_zoo_count\": %llu,\n"
        "    \"device_registry_identical\": %s,\n"
        "    \"device_neutral_identical\": %s,\n"
        "    \"device_invalidation_ok\": %s,\n"
        "    \"device_partition_ok\": %s\n"
        "  }\n"
        "}\n",
        std::thread::hardware_concurrency(),
        qt_env ? qt_env : "unset", QOMPRESS_BUILD_TYPE,
        sim.optimized_ms, sim.naive_ms, sim_speedup, sim.max_diff,
        gr.optimized_ms, gr.naive_ms, grape_speedup, gr.max_grad_diff,
        static_cast<unsigned long long>(gr.warm_allocs), rt.cached_ms,
        rt.uncached_ms, route_speedup,
        static_cast<unsigned long long>(rt.gates),
        rt.identical ? "true" : "false", qh.cached_ms,
        static_cast<unsigned long long>(qh.gates),
        static_cast<unsigned long long>(qh.cache_hits),
        static_cast<unsigned long long>(qh.cache_misses),
        static_cast<unsigned long long>(qh.cache_revalidations),
        ex.serial_ms, ex.t2_ms,
        ex.t4_ms, ex.t8_ms, exh_speedup_t4,
        static_cast<unsigned long long>(ex.pairs),
        ex.identical ? "true" : "false", sw.serial_ms, sw.t2_ms,
        sw.t4_ms, sw.t8_ms, sweep_speedup_t4,
        static_cast<unsigned long long>(sw.cells),
        sw.identical ? "true" : "false", gl.serial_ms, gl.t2_ms,
        gl.t4_ms, gl.t8_ms, grape_seg_speedup_t4,
        static_cast<unsigned long long>(gl.warm_lane_allocs),
        gl.identical ? "true" : "false", pd.pade_ms, pd.taylor_ms,
        pade_speedup, pd.max_diff, sv.cold_t1_ms, sv.cold_t2_ms,
        sv.cold_t4_ms, sv.cold_t8_ms, sv.warm_t1_ms, sv.warm_t2_ms,
        sv.warm_t4_ms, sv.warm_t8_ms, service_warm_speedup,
        static_cast<unsigned long long>(sv.requests),
        static_cast<unsigned long long>(sv.hits),
        static_cast<unsigned long long>(sv.misses),
        sv.identical ? "true" : "false", tm.cold_t1_ms, tm.cold_t2_ms,
        tm.cold_t4_ms, tm.cold_t8_ms, tm.rebind_t1_ms, tm.rebind_t2_ms,
        tm.rebind_t4_ms, tm.rebind_t8_ms, template_rebind_speedup,
        static_cast<unsigned long long>(tm.angles),
        static_cast<unsigned long long>(tm.template_hits),
        static_cast<unsigned long long>(tm.template_misses),
        tm.identical ? "true" : "false", ps.cold_ms, ps.disk_ms,
        ps.memo_ms, persist_disk_speedup, persist_memo_speedup,
        static_cast<unsigned long long>(ps.requests),
        static_cast<unsigned long long>(ps.disk_hits),
        static_cast<unsigned long long>(ps.disk_writes),
        static_cast<unsigned long long>(ps.store_bytes),
        ps.identical ? "true" : "false", dv.table.c_str(),
        static_cast<unsigned long long>(dv.devices),
        dv.identical ? "true" : "false",
        dv.neutral_identical ? "true" : "false",
        dv.invalidation_ok ? "true" : "false",
        dv.partition_ok ? "true" : "false");
    std::cout << buf;
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << buf;
        if (!out) {
            std::cerr << "error: cannot write '" << out_path << "'\n";
            return 1;
        }
    }

    if (check) {
        int failures = 0;
        auto expect = [&](bool ok, const char *what) {
            std::cerr << (ok ? "PASS: " : "FAIL: ") << what << '\n';
            if (!ok)
                ++failures;
        };
        expect(sim.max_diff <= 1e-10,
               "applyUnitary agrees with naive kernel to 1e-10");
        expect(gr.max_grad_diff <= 1e-10,
               "GRAPE gradient agrees with naive reference to 1e-10");
        expect(gr.warm_allocs == 0,
               "warm GRAPE gradient step performs zero heap "
               "allocations");
        expect(rt.identical,
               "cached and direct-Dijkstra routing emit identical "
               "circuits");
        expect(ex.identical,
               "exhaustive search chooses bit-identical pairings at "
               "1/2/4/8 lanes");
        expect(sw.identical,
               "eval sweep emits bit-identical records at 1/2/4/8 "
               "lanes");
        expect(gl.identical,
               "GRAPE objective+gradient is bit-identical at 1/2/4/8 "
               "lanes");
        expect(gl.warm_lane_allocs == 0,
               "warm pooled GRAPE gradient step performs zero heap "
               "allocations on every lane");
        expect(pd.max_diff <= 1e-12,
               "Pade-13 family exponential matches the Taylor "
               "reference to 1e-12");
        expect(pade_speedup >= 1.15,
               "Pade-13 family exponential beats the Taylor reference "
               "by >= 1.15x");
        expect(sv.identical,
               "CompilerService artifacts are bit-identical to direct "
               "strategy compiles at 1/2/4/8 lanes");
        expect(sv.hits > 0 && sv.misses > 0,
               "service memo cache observed both misses (cold) and "
               "hits (warm)");
        expect(service_warm_speedup >= kServiceWarmMargin,
               "warm (memoized) service batches beat cold ones by >= "
               "the memo cache's expected margin");
        expect(tm.identical,
               "template rebinds are bit-identical to full compiles "
               "across the QAOA angle grid at 1/2/4/8 lanes");
        expect(tm.template_hits > 0,
               "the angle grid was served from the template tier");
        expect(template_rebind_speedup >= kTemplateRebindMargin,
               "template rebinds beat cold full compiles by >= the "
               "template tier's expected margin");
        expect(ps.identical,
               "disk-tier artifacts decode bit-identical to direct "
               "strategy compiles");
        expect(ps.disk_writes == ps.requests,
               "priming pass wrote the whole catalog behind the "
               "misses exactly once");
        expect(ps.disk_hits > 0,
               "the warm-restarted service served requests from the "
               "disk tier");
        expect(persist_disk_speedup >= kPersistDiskWarmMargin,
               "a disk-warm restart serves the catalog >= the "
               "persistence tier's expected margin over cold compiles");
        expect(dv.identical,
               "registry-resolved device compiles are bit-identical "
               "to direct compiles on the registry topology");
        expect(dv.neutral_identical,
               "a neutral uniform calibration compiles bit-identical "
               "to no calibration");
        expect(dv.invalidation_ok,
               "a calibration install re-keys exactly its device: "
               "stale miss, fresh hit, unrelated warm hit");
        expect(dv.partition_ok,
               "the service counter partition holds across "
               "calibration updates");
        return failures == 0 ? 0 : 1;
    }
    return 0;
}
