/**
 * @file
 * In-process benchmark of the compile service.
 *
 * One client thread drives a CompilerService with one lane, the way
 * qompressd's POST /compile does: QASM text goes to parseQasm, the
 * circuit into CompileRequest::forDevice, and the request into
 * compileSync. The loop is closed: the next request is sent only after
 * the previous one returned. Input generation happens outside every
 * timed interval.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--tmp DIR] [--trace-out FILE]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 re-runs the same
 * requests with spans and prints the per-layer metrics. The last line of
 * standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>

#include <sched.h>
#include <stdlib.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/rebind.hh"
#include "ir/fingerprint.hh"
#include "ir/passes.hh"
#include "ir/qasm.hh"
#include "ir/serialize.hh"
#include "replay.hh"
#include "sim/equivalence.hh"
#include "strategies/strategy.hh"
#include "trace.hh"
#include "util.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace qompress;

/** Passes an end-to-end run makes over the same requests: at least
 *  kMinPasses, then more until --seconds have passed since the first
 *  set-up. */
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 200;
/** Set-ups timed per end-to-end run: at least kMinSetups, and more until
 *  they add up to kMinSetupSeconds, so that a cheap set-up's median rests
 *  on many samples. Extra ones follow the passes; setup_s is the median. */
constexpr std::size_t kMinSetups = 9;
constexpr double kMinSetupSeconds = 1.0;
/** Served artifacts re-checked against a direct strategy compile. */
constexpr int kIdentitySamples = 6;
/** Stated tolerance of the traced run's stage reconciliation: the
 *  replayed stages plus the probed key and template work must account
 *  for this share of the traced compile time. */
constexpr double kReconcileLow = 0.85;
constexpr double kReconcileHigh = 1.15;

constexpr const char *kStoreFile = "artifacts.log";

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string tmpRoot = ".";
    std::string traceOut;
};

enum class Failure
{
    None,
    Routing, ///< FatalError "no routing path" out of the router
    Fatal,   ///< any other FatalError
    Panic,   ///< PanicError: a broken internal invariant
    Other,   ///< anything else
};

const char *
failureName(Failure f)
{
    switch (f) {
    case Failure::None:
        return "none";
    case Failure::Routing:
        return "FatalError(routing)";
    case Failure::Fatal:
        return "FatalError";
    case Failure::Panic:
        return "PanicError";
    case Failure::Other:
        return "other";
    }
    return "?";
}

Failure
classifyCurrentException(std::string &what)
{
    try {
        throw;
    } catch (const FatalError &e) {
        what = e.what();
        return what.find("no routing path") != std::string::npos
                   ? Failure::Routing
                   : Failure::Fatal;
    } catch (const PanicError &e) {
        what = e.what();
        return Failure::Panic;
    } catch (const std::exception &e) {
        what = e.what();
        return Failure::Other;
    } catch (...) {
        what = "non-standard exception";
        return Failure::Other;
    }
}

/** A directory under the run's temporary root, removed with its contents
 *  on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &root)
    {
        std::string tmpl = root + "/perfbench-XXXXXX";
        if (!mkdtemp(tmpl.data()))
            throw std::runtime_error("mkdtemp failed under " + root);
        path_ = tmpl;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string file(const char *name) const { return path_ + "/" + name; }

  private:
    std::string path_;
};

/** A configured, warmed service. The directory outlives the service
 *  (members are destroyed in reverse order). */
struct Instance
{
    std::unique_ptr<TempDir> dir;
    std::unique_ptr<CompilerService> service;
    ServiceStats afterSetup;
};

CompilerConfig
requestConfig()
{
    CompilerConfig cfg;
    cfg.threads = 1;
    return cfg;
}

CompileRequest
toRequest(const Input &in, Circuit circuit)
{
    return CompileRequest::forDevice(std::move(circuit), in.device,
                                     in.strategy, requestConfig());
}

CompileArtifact
serve(CompilerService &svc, const Input &in)
{
    return svc.compileSync(toRequest(in, parseQasm(*in.qasm, "request")));
}

/** Compile the workload's store content into a store once per run;
 *  null when the workload's set-ups start from an empty store. */
std::unique_ptr<TempDir>
prepareStore(const Workload &w, const Options &opt)
{
    if (w.storeContent.empty())
        return nullptr;
    auto dir = std::make_unique<TempDir>(opt.tmpRoot);
    ServiceOptions so = w.options;
    so.storePath = dir->file(kStoreFile);
    CompilerService svc(so);
    for (const Input &in : w.storeContent)
        serve(svc, in);
    return dir;
}

/** Service construction, store open and warm-up. With @p image the
 *  service opens a copy of that store, as a restarted service would. */
std::unique_ptr<Instance>
setUp(const Workload &w, const Options &opt, const TempDir *image)
{
    auto s = std::make_unique<Instance>();
    ServiceOptions so = w.options;
    if (w.useStore) {
        s->dir = std::make_unique<TempDir>(opt.tmpRoot);
        so.storePath = s->dir->file(kStoreFile);
        if (image)
            std::filesystem::copy_file(image->file(kStoreFile),
                                       so.storePath);
    }
    s->service = std::make_unique<CompilerService>(so);
    for (std::uint64_t k = 0; k < w.warmupCount; ++k)
        serve(*s->service, w.warmup(k));
    s->afterSetup = s->service->stats();
    return s;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Run the calling thread on @p cpu only (best effort). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

bool
partitionHolds(const ServiceStats &s)
{
    return s.requests ==
           s.hits + s.templateHits + s.diskHits + s.misses + s.coalesced;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Latency summary: throughput is requests over summed in-call time. */
struct Summary
{
    double throughputRps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

Summary
summarize(const std::vector<double> &lat)
{
    double busy_us = 0.0;
    for (double x : lat)
        busy_us += x;
    return {ratio(static_cast<double>(lat.size()), busy_us) * 1e6,
            percentile(lat, 0.50), percentile(lat, 0.99)};
}

/** Everything one pass produced. */
struct RunData
{
    std::vector<double> latencyUs; ///< in-call time per request
    std::uint64_t failed = 0;
    std::uint64_t routeFailures = 0;
    bool unexpectedFailure = false; ///< PanicError or non-FatalError

    /** Sums over the served artifacts. */
    std::uint64_t served = 0;
    double physGatesSum = 0.0;
    double pairsSum = 0.0;

    ServiceStats atEnd; ///< after the last request of the pass
    std::vector<std::pair<std::uint64_t, CompileArtifact>> samples;
};

/** What the traced pass records beyond the end-to-end data. */
struct TraceState
{
    explicit TraceState(const DeviceRegistry &devices) : replay(devices) {}

    Tracer tracer;
    StageReplay replay;
    std::uint64_t replayed = 0;
    std::uint64_t replayMismatches = 0;
    CacheDelta dfc;
    double artifactBytesSum = 0.0;
    double nativeGatesSum = 0.0;
};

/** Per-request work of the traced pass, after the request returned and
 *  outside its timed interval: probes that time the layers' public
 *  functions on this request's own inputs, and for a compile, the stage
 *  replay, checked byte for byte against the served artifact. */
void
probe(CompilerService &svc, std::uint64_t i, const Input &in,
      const Circuit &c, const CompileArtifact &art, Tier tier,
      TraceState &t)
{
    Tracer &tr = t.tracer;
    const std::uint32_t p = tr.begin("probes", Span::kNoParent, i);
    tr[p].tier = tier;
    tr.scoped("ir.fingerprint", p, i, [&] { return circuitFingerprint(c); });
    tr.scoped("arch.device_get", p, i,
              [&] { return svc.devices().get(in.device); });
    const bool parameterized =
        std::any_of(c.gates().begin(), c.gates().end(),
                    [](const Gate &g) { return gateHasParam(g.type); });
    if (parameterized && tier != Tier::Memo)
        tr.scoped("ir.structural_fingerprint", p, i,
                  [&] { return structuralCircuitFingerprint(c); });
    if (tier == Tier::Disk) {
        const auto blob = encodeCompileResult(*art);
        tr.scoped("ir.decode", p, i,
                  [&] { return decodeCompileResult(blob); });
    }
    if (tier == Tier::Miss && parameterized)
        tr.scoped("compiler.make_template", p, i,
                  [&] { return makeTemplate(art, c); });
    if (tier == Tier::Template) {
        const CompiledTemplate tpl = makeTemplate(art, c);
        const Device dev = svc.devices().get(in.device);
        tr.scoped("compiler.rebind", p, i, [&] {
            return rebindTemplate(tpl, c, GateLibrary{},
                                  dev.calibration.get());
        });
    }
    tr.end(p);

    if (tier == Tier::Failed) {
        // The service drops the pooled context of a compile that threw.
        t.replay.dropContext(in.device);
        return;
    }
    const auto served = encodeCompileResult(*art);
    if (tier == Tier::Miss) {
        CacheDelta dfc;
        const auto replayed =
            t.replay.run(c, in.device, in.strategy, tr, i, dfc);
        ++t.replayed;
        if (replayed != served)
            ++t.replayMismatches;
        t.dfc.hits += dfc.hits;
        t.dfc.misses += dfc.misses;
        t.dfc.revalidations += dfc.revalidations;
    }
    t.artifactBytesSum += static_cast<double>(served.size());
    t.nativeGatesSum += static_cast<double>(
        (isNative(c) ? c : decomposeToNativeGates(c)).gates().size());
}

/**
 * One pass: the closed loop over requests 0 .. passRequests-1. With
 * @p trace set it records spans around each call, attributes each
 * request to a tier by counter deltas, and runs the probes.
 */
RunData
measure(Instance &s, const Workload &w, const Options &opt,
        TraceState *trace)
{
    RunData d;
    CompilerService &svc = *s.service;
    std::set<std::uint64_t> sample_at;
    Rng pick(mixSeed(opt.seed, 1ULL << 50));
    while (sample_at.size() < kIdentitySamples)
        sample_at.insert(pick.nextUint(w.passRequests));

    ServiceStats prev = svc.stats();
    for (std::uint64_t i = 0; i < w.passRequests; ++i) {
        const Input in = w.request(i); // generation is not timed

        CompileArtifact art;
        Failure failure = Failure::None;
        std::string what;
        std::optional<CompileRequest> req;
        std::uint32_t root = Span::kNoParent, call = Span::kNoParent;
        const auto t0 = Clock::now();
        try {
            if (!trace) {
                art = serve(svc, in);
            } else {
                Tracer &tr = trace->tracer;
                root = tr.begin("request", Span::kNoParent, i);
                Circuit c = tr.scoped("ir.qasm_parse", root, i, [&] {
                    return parseQasm(*in.qasm, "request");
                });
                req.emplace(toRequest(in, std::move(c)));
                call = tr.begin("service.compile_sync", root, i);
                art = svc.compileSync(*req);
            }
        } catch (...) {
            failure = classifyCurrentException(what);
        }
        if (call != Span::kNoParent)
            trace->tracer.end(call);
        if (root != Span::kNoParent)
            trace->tracer.end(root);
        const auto t1 = Clock::now();
        d.latencyUs.push_back(usBetween(t0, t1));

        if (failure != Failure::None) {
            ++d.failed;
            if (failure == Failure::Routing)
                ++d.routeFailures;
            if (failure == Failure::Panic || failure == Failure::Other)
                d.unexpectedFailure = true;
            std::cerr << "failed request: workload=" << w.name
                      << " seed=" << opt.seed << " index=" << i
                      << " device=" << in.device
                      << " strategy=" << in.strategy
                      << " class=" << failureName(failure) << ": " << what
                      << "\n";
        }
        if (art) {
            d.physGatesSum +=
                static_cast<double>(art->compiled.gates().size());
            d.pairsSum += static_cast<double>(art->compressions.size());
            ++d.served;
        }
        if (art && sample_at.count(i))
            d.samples.emplace_back(i, art);
        if (trace && req) {
            const ServiceStats now = svc.stats();
            Tier tier = Tier::Failed;
            if (failure == Failure::None) {
                tier = now.hits > prev.hits ? Tier::Memo
                       : now.templateHits > prev.templateHits
                           ? Tier::Template
                       : now.diskHits > prev.diskHits ? Tier::Disk
                                                      : Tier::Miss;
            }
            prev = now;
            trace->tracer[root].tier = tier;
            if (call != Span::kNoParent)
                trace->tracer[call].tier = tier;
            probe(svc, i, in, *req->circuit, art, tier, *trace);
        }
    }
    d.atEnd = svc.stats();
    return d;
}

/** Output checks shared by both modes; reasons go to stderr. */
bool
checkOutputs(Instance &s, const Workload &w, const RunData &d)
{
    CompilerService &svc = *s.service;
    bool ok = true;
    auto fail = [&](const std::string &why) {
        std::cerr << "check failed: " << w.name << ": " << why << "\n";
        ok = false;
    };
    if (d.unexpectedFailure)
        fail("a request failed with PanicError or a non-FatalError");

    if (w.expectWarm) {
        if (d.atEnd.misses != s.afterSetup.misses)
            fail("misses after set-up: " +
                 std::to_string(d.atEnd.misses - s.afterSetup.misses));
        if (d.atEnd.storeErrors != 0)
            fail("store errors: " + std::to_string(d.atEnd.storeErrors));
        if (d.failed != 0)
            fail("failed requests: " + std::to_string(d.failed));
    }

    // Served artifacts equal a direct compile of the same circuit.
    for (const auto &[i, art] : d.samples) {
        const Input in = w.request(i);
        const Circuit c = parseQasm(*in.qasm, "request");
        const Device dev = svc.devices().get(in.device);
        CompilerConfig cfg = requestConfig();
        cfg.calibration = dev.calibration;
        const CompileResult direct = makeStrategy(in.strategy)->compile(
            c, dev.topology, GateLibrary{}, cfg);
        if (encodeCompileResult(direct) != encodeCompileResult(*art))
            fail("request " + std::to_string(i) +
                 " differs from a direct compile");
    }

    // Small circuits through the same service path, by statevector.
    for (const Input &in : w.smallSlice) {
        const Circuit c = parseQasm(*in.qasm, "request");
        try {
            const CompileArtifact art = serve(svc, in);
            const EquivalenceReport rep = checkEquivalence(c, art->compiled);
            if (!rep.ok)
                fail("not equivalent on " + in.device + "/" + in.strategy +
                     ": " + rep.message);
        } catch (const std::exception &e) {
            fail(std::string("small circuit failed: ") + e.what());
        }
    }

    if (!partitionHolds(svc.stats()))
        fail("requests != hits + templateHits + diskHits + misses + "
             "coalesced");
    return ok;
}

/** Quality of the artifacts served for the workload's fixed suite. */
struct Quality
{
    double epsGeomean = 0.0;
    double routingGatesMean = 0.0;
    std::size_t served = 0;
};

Quality
serveQualitySuite(Instance &s, const Workload &w)
{
    // An EPS below the smallest normal double underflows to 0 in the
    // compiler's own arithmetic; it counts as that smallest value so
    // the mean of logs stays finite and deterministic.
    const double floor_eps = std::numeric_limits<double>::min();
    Quality q;
    double log_sum = 0.0, routing_sum = 0.0;
    for (const Input &in : w.qualitySuite) {
        try {
            const CompileArtifact art = serve(*s.service, in);
            log_sum += std::log(std::max(art->metrics.totalEps, floor_eps));
            routing_sum += art->metrics.numRoutingGates;
            ++q.served;
        } catch (const FatalError &) {
            // A known routing failure: it is left out of the means and
            // shows as quality_suite below the suite size.
        }
    }
    const double n = static_cast<double>(q.served);
    q.epsGeomean = std::exp(ratio(log_sum, n));
    q.routingGatesMean = ratio(routing_sum, n);
    return q;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const MetricList &m)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": " << m.json()
              << "}" << std::endl;
}

int
runEndToEnd(const Workload &w, const Options &opt)
{
    // Host speed on a shared machine drifts by tens of percent over
    // seconds, and differently on each CPU. Every pass sends the same
    // requests to a freshly set-up service, on the next CPU in turn, so
    // a request does the same work in every pass, and its latency is
    // its best pass: a slow spell has to cover every CPU and last
    // through every pass to show.
    const auto image = prepareStore(w, opt);
    std::vector<double> setup_s, best;
    std::unique_ptr<Instance> s;
    RunData d;
    std::uint64_t failed = 0;
    bool repeatable = true;
    int passes = 0;
    const std::vector<int> cpus = allowedCpus();
    const auto start = Clock::now();
    while (passes < kMinPasses ||
           (secondsSince(start) < opt.seconds && passes < kMaxPasses)) {
        if (!cpus.empty())
            pinTo(cpus[passes % cpus.size()]);
        s.reset(); // the previous set-up's service and store go first
        const auto t0 = Clock::now();
        s = setUp(w, opt, image.get());
        setup_s.push_back(secondsSince(t0));
        d = measure(*s, w, opt, nullptr);
        if (passes++ == 0) {
            best = d.latencyUs;
            failed = d.failed;
            continue;
        }
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], d.latencyUs[i]);
        repeatable = repeatable && d.failed == failed;
    }
    bool correct = checkOutputs(*s, w, d);
    if (!repeatable) {
        std::cerr << "check failed: " << w.name
                  << ": passes over the same requests failed differently\n";
        correct = false;
    }
    const Quality quality = serveQualitySuite(*s, w);
    const Summary sum = summarize(best);
    s.reset();
    double setup_total = 0.0;
    for (double x : setup_s)
        setup_total += x;
    while (setup_s.size() < kMinSetups || setup_total < kMinSetupSeconds) {
        const auto t0 = Clock::now();
        setUp(w, opt, image.get());
        setup_s.push_back(secondsSince(t0));
        setup_total += setup_s.back();
    }

    std::cout << "# " << w.name << " seed=" << opt.seed
              << " passes=" << passes << " requests_per_pass=" << best.size()
              << " failed_per_pass=" << d.failed
              << " quality_suite=" << quality.served << "/"
              << w.qualitySuite.size() << "\n";
    MetricList m;
    m.add("throughput_rps", sum.throughputRps, "1/s");
    m.add("latency_p50_us", sum.p50Us, "us");
    m.add("latency_p99_us", sum.p99Us, "us");
    // Every pass sends the same requests and fails the same number of
    // them, so each request counts once: the counts repeat exactly for a
    // seed, however many passes the host's speed allowed.
    const std::uint64_t attempted = best.size();
    m.add("ok_frac",
          static_cast<double>(attempted - failed) /
              static_cast<double>(attempted),
          "fraction");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("eps_geomean", quality.epsGeomean, "fraction");
    m.add("routing_gates_mean", quality.routingGatesMean, "gates");
    printResult(correct, attempted, failed, m);
    return 0;
}

int
runTraced(const Workload &w, const Options &opt)
{
    // One untraced pass, then one traced pass over the same requests on
    // a fresh set-up; the throughput gap is the overhead of spans plus
    // probes.
    const auto image = prepareStore(w, opt);
    double untraced_rps = 0.0;
    {
        auto s = setUp(w, opt, image.get());
        untraced_rps =
            summarize(measure(*s, w, opt, nullptr).latencyUs).throughputRps;
    }
    auto s = setUp(w, opt, image.get());
    TraceState t(s->service->devices());
    const RunData d = measure(*s, w, opt, &t);
    bool correct = checkOutputs(*s, w, d);
    if (t.replayMismatches) {
        std::cerr << "check failed: " << w.name << ": " << t.replayMismatches
                  << " stage replays differ from the served artifact\n";
        correct = false;
    }
    const double traced_rps = summarize(d.latencyUs).throughputRps;

    // Self times by span name, and of the service call by tier.
    const std::vector<double> self = t.tracer.selfTimesUs();
    std::map<std::string, std::vector<double>> by_name;
    std::map<Tier, std::vector<double>> call_by_tier;
    double miss_probe_us = 0.0; // key and template work probed on misses
    const auto &spans = t.tracer.spans();
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const Span &sp = spans[k];
        by_name[sp.name].push_back(self[k]);
        if (std::string_view(sp.name) == "service.compile_sync")
            call_by_tier[sp.tier].push_back(self[k]);
        if (sp.parent != Span::kNoParent &&
            std::string_view(spans[sp.parent].name) == "probes" &&
            spans[sp.parent].tier == Tier::Miss)
            miss_probe_us += self[k];
    }
    const double replayed = static_cast<double>(t.replayed);
    auto med = [&](const char *name) { return median(by_name[name]); };
    auto per_compile = [&](const char *name) {
        double sum_us = 0.0;
        for (double x : by_name[name])
            sum_us += x;
        return ratio(sum_us, replayed);
    };
    const char *kStages[] = {
        "ir.decompose",   "compiler.interaction", "strategies.choose_pairs",
        "compiler.map",   "compiler.route",       "compiler.schedule",
        "compiler.validate", "compiler.metrics"};
    double stage_us = 0.0;
    for (const char *st : kStages)
        stage_us += per_compile(st);
    // The stages, the encode for the store and the key and template
    // work probed on the same requests, over the traced compile time.
    const double reconcile =
        ratio(stage_us + per_compile("ir.encode") +
                  ratio(miss_probe_us, replayed),
              mean(call_by_tier[Tier::Miss]));
    if (t.replayed &&
        (reconcile < kReconcileLow || reconcile > kReconcileHigh))
        std::cerr << "warning: stage times reconcile to " << reconcile
                  << " of the traced compile time, outside [" << kReconcileLow
                  << ", " << kReconcileHigh << "]\n";

    const ServiceStats &a = s->afterSetup;
    const ServiceStats &e = d.atEnd;
    const double reqs = static_cast<double>(e.requests - a.requests);
    const double served = static_cast<double>(d.served);
    const double dfc_lookups =
        static_cast<double>(t.dfc.hits + t.dfc.misses);
    const double contexts = static_cast<double>(
        (e.contextsCreated - a.contextsCreated) +
        (e.contextsReused - a.contextsReused));
    auto per_req = [&](std::uint64_t after, std::uint64_t before) {
        return ratio(static_cast<double>(after - before), reqs);
    };

    std::cout << "# " << w.name << " seed=" << opt.seed
              << " traced_requests=" << d.latencyUs.size()
              << " spans=" << spans.size() << " replayed=" << t.replayed
              << " stage_reconcile=" << reconcile << "\n";
    if (!opt.traceOut.empty() && !t.tracer.write(opt.traceOut))
        std::cerr << "could not write spans to " << opt.traceOut << "\n";

    MetricList m;
    m.add("ir.qasm_parse_us", med("ir.qasm_parse"), "us");
    m.add("ir.fingerprint_us", med("ir.fingerprint"), "us");
    m.add("arch.device_get_us", med("arch.device_get"), "us");
    m.add("service.memo_hit_us", median(call_by_tier[Tier::Memo]), "us");
    m.add("ir.decode_us", med("ir.decode"), "us");
    m.add("service.disk_hit_us", median(call_by_tier[Tier::Disk]), "us");
    m.add("ir.artifact_bytes_mean", ratio(t.artifactBytesSum, served),
          "bytes");
    m.add("ir.structural_fingerprint_us", med("ir.structural_fingerprint"),
          "us");
    m.add("compiler.rebind_us", med("compiler.rebind"), "us");
    m.add("compiler.make_template_us", med("compiler.make_template"), "us");
    m.add("service.template_hit_us", median(call_by_tier[Tier::Template]),
          "us");
    m.add("service.miss_us", median(call_by_tier[Tier::Miss]), "us");
    m.add("service.evictions_per_req", per_req(e.evictions, a.evictions),
          "count");
    m.add("ir.decompose_us", per_compile("ir.decompose"), "us");
    m.add("compiler.interaction_us", per_compile("compiler.interaction"),
          "us");
    m.add("strategies.choose_pairs_us",
          per_compile("strategies.choose_pairs"), "us");
    m.add("compiler.map_us", per_compile("compiler.map"), "us");
    m.add("compiler.route_us", per_compile("compiler.route"), "us");
    m.add("compiler.schedule_us", per_compile("compiler.schedule"), "us");
    m.add("compiler.validate_us", per_compile("compiler.validate"), "us");
    m.add("compiler.metrics_us", per_compile("compiler.metrics"), "us");
    m.add("compiler.map_share", ratio(per_compile("compiler.map"), stage_us),
          "fraction");
    m.add("compiler.route_share",
          ratio(per_compile("compiler.route"), stage_us), "fraction");
    m.add("compiler.stage_reconcile_ratio", reconcile, "fraction");
    m.add("compiler.dfc_hit_ratio",
          ratio(static_cast<double>(t.dfc.hits), dfc_lookups), "fraction");
    m.add("compiler.dfc_misses_per_compile",
          ratio(static_cast<double>(t.dfc.misses), replayed), "count");
    m.add("compiler.dfc_revalidations_per_compile",
          ratio(static_cast<double>(t.dfc.revalidations), replayed),
          "count");
    m.add("service.context_reuse_ratio",
          ratio(static_cast<double>(e.contextsReused - a.contextsReused),
                contexts),
          "fraction");
    m.add("ir.encode_us", per_compile("ir.encode"), "us");
    m.add("service.disk_writes",
          static_cast<double>(e.diskWrites - a.diskWrites), "count");
    m.add("service.memo_ratio", per_req(e.hits, a.hits), "fraction");
    m.add("service.template_ratio", per_req(e.templateHits, a.templateHits),
          "fraction");
    m.add("service.disk_ratio", per_req(e.diskHits, a.diskHits),
          "fraction");
    m.add("service.miss_ratio", per_req(e.misses, a.misses), "fraction");
    m.add("service.store_errors",
          static_cast<double>(e.storeErrors - a.storeErrors), "count");
    m.add("compiler.route_failures", static_cast<double>(d.routeFailures),
          "count");
    m.add("ir.native_gates_mean", ratio(t.nativeGatesSum, served), "gates");
    m.add("compiler.phys_gates_mean", ratio(d.physGatesSum, served),
          "gates");
    m.add("strategies.pairs_mean", ratio(d.pairsSum, served), "count");
    m.add("trace.traced_rps", traced_rps, "1/s");
    m.add("trace.overhead_frac", ratio(untraced_rps, traced_rps) - 1.0,
          "fraction");
    printResult(correct, d.latencyUs.size(), d.failed, m);
    return 0;
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tmp DIR] [--trace-out FILE]\nworkloads:";
    for (const auto &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
}

int
run(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::stoull(v), have_seed = true;
        else if (a == "--seconds")
            opt.seconds = std::stod(v);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--tmp")
            opt.tmpRoot = v;
        else if (a == "--trace-out")
            opt.traceOut = v;
        else
            return usage(("unknown option " + a).c_str());
    }
    if (opt.workload.empty() || !have_seed || !(opt.seconds > 0.0))
        return usage("--workload, --seed and --seconds are required");
    const Workload w = makeWorkload(opt.workload, opt.seed);
    return opt.trace ? runTraced(w, opt) : runEndToEnd(w, opt);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
