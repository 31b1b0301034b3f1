/**
 * @file
 * CompilerService contract tests.
 *
 * The load-bearing suite is the bit-identity matrix: a service compile
 * must equal a direct CompressionStrategy::compile of the same inputs
 * -- compiled gates, metrics, compressions, layouts -- for every
 * standard strategy on ring/grid/heavyHex65, across {cache on/off} x
 * {1, 2, 8 lanes} x {sync, async batch}. The rest covers the memo
 * cache (hit rates, LRU eviction, capacity knob, shared artifacts),
 * the context pool, registry-by-name requests, the structured
 * unknown-strategy error, and the strategy-registry round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "ir/passes.hh"
#include "ir/serialize.hh"
#include "service/artifact_store.hh"
#include "service/compiler_service.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

using bench::artifactDiff;

std::vector<Topology>
testTopologies()
{
    std::vector<Topology> topos;
    topos.push_back(Topology::ring(8));
    topos.push_back(Topology::grid(8));
    topos.push_back(Topology::heavyHex65());
    return topos;
}

/**
 * The acceptance matrix: every standard strategy on ring/grid/
 * heavyHex65, service vs direct, across cache configuration, lane
 * count, and sync/async entry points.
 */
TEST(ServiceIdentity, MatchesDirectCompileEverywhere)
{
    const Circuit circuit = bernsteinVazirani(8);
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    const auto topos = testTopologies();
    const auto strategies = standardStrategies();

    // Direct references, one per (strategy, topology).
    std::vector<CompileResult> direct;
    std::vector<CompileRequest> reqs;
    for (const auto &strat : strategies) {
        for (const auto &topo : topos) {
            direct.push_back(strat->compile(circuit, topo, lib, cfg));
            reqs.push_back(CompileRequest::forCircuit(
                circuit, topo, strat->name(), cfg, lib));
        }
    }

    for (std::size_t cache_cap : {std::size_t(0), std::size_t(64)}) {
        for (int lanes : {1, 2, 8}) {
            ServiceOptions opts;
            opts.cacheCapacity = cache_cap;
            opts.threads = lanes;
            CompilerService service(opts);

            // Sync, one request at a time.
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                const CompileArtifact art = service.compileSync(reqs[i]);
                EXPECT_EQ(artifactDiff(*art, direct[i]), "")
                    << "sync cache=" << cache_cap << " lanes=" << lanes
                    << " req=" << i;
            }

            // Async batch (same service: with the cache on these are
            // warm; with it off they recompile -- both must match).
            auto handles = service.submitBatch(reqs, lanes);
            ASSERT_EQ(handles.size(), reqs.size());
            for (std::size_t i = 0; i < handles.size(); ++i) {
                const CompileArtifact art = handles[i].get();
                EXPECT_EQ(artifactDiff(*art, direct[i]), "")
                    << "batch cache=" << cache_cap << " lanes=" << lanes
                    << " req=" << i;
            }
        }
    }
}

TEST(ServiceCache, WarmPassHitsEveryRequest)
{
    const Circuit circuit = bernsteinVazirani(6);
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;

    CompilerService service;
    std::vector<CompileRequest> reqs;
    for (const auto &name : {"qubit_only", "eqm", "rb", "awe", "pp"})
        reqs.push_back(CompileRequest::forCircuit(circuit, topo, name,
                                                  CompilerConfig{}, lib));

    std::vector<CompileArtifact> first;
    for (const auto &r : reqs)
        first.push_back(service.compileSync(r));
    ServiceStats s1 = service.stats();
    EXPECT_EQ(s1.requests, reqs.size());
    EXPECT_EQ(s1.misses, reqs.size());
    EXPECT_EQ(s1.hits, 0u);
    EXPECT_EQ(s1.cacheSize, reqs.size());

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const CompileArtifact again = service.compileSync(reqs[i]);
        // A hit returns the *same* shared immutable artifact.
        EXPECT_EQ(again.get(), first[i].get());
    }
    ServiceStats s2 = service.stats();
    EXPECT_EQ(s2.hits, reqs.size());
    EXPECT_EQ(s2.misses, reqs.size());
}

TEST(ServiceCache, LruEvictionAndCapacityKnob)
{
    const GateLibrary lib;
    const Topology topo = Topology::grid(6);

    ServiceOptions opts;
    opts.cacheCapacity = 2;
    CompilerService service(opts);

    auto req = [&](const char *strategy) {
        return CompileRequest::forCircuit(bernsteinVazirani(6), topo,
                                          strategy, CompilerConfig{},
                                          lib);
    };

    service.compileSync(req("eqm"));        // {eqm}
    service.compileSync(req("rb"));         // {rb, eqm}
    service.compileSync(req("awe"));        // {awe, rb} -- eqm evicted
    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.cacheSize, 2u);

    service.compileSync(req("eqm")); // recompiles (was evicted)
    EXPECT_EQ(service.stats().misses, 4u);

    service.setCacheCapacity(1);
    EXPECT_EQ(service.stats().cacheSize, 1u);
    EXPECT_GE(service.stats().evictions, 2u);

    // Capacity 0 disables memoization outright.
    service.setCacheCapacity(0);
    service.compileSync(req("eqm"));
    service.compileSync(req("eqm"));
    ServiceStats off = service.stats();
    EXPECT_EQ(off.cacheSize, 0u);
    EXPECT_EQ(off.hits, s.hits);
}

TEST(ServiceCache, DisabledCacheStillIdentical)
{
    const Circuit circuit = bernsteinVazirani(6);
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;
    ServiceOptions opts;
    opts.cacheCapacity = 0;
    CompilerService service(opts);
    const auto req = CompileRequest::forCircuit(circuit, topo, "eqm",
                                                CompilerConfig{}, lib);
    const CompileArtifact a = service.compileSync(req);
    const CompileArtifact b = service.compileSync(req);
    EXPECT_NE(a.get(), b.get()); // distinct compiles...
    EXPECT_EQ(artifactDiff(*a, *b), ""); // ...same bits
    EXPECT_EQ(service.stats().hits, 0u);
    EXPECT_EQ(service.stats().misses, 2u);
}

TEST(ServiceContextPool, ReusesWarmContextsAcrossRequests)
{
    const Topology topo = Topology::grid(8);
    const GateLibrary lib;
    ServiceOptions opts;
    opts.cacheCapacity = 0; // force real compiles
    CompilerService service(opts);

    // Same topology/library/config pricing, different strategies and
    // circuits: one context serves all four compiles back to back.
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "eqm", CompilerConfig{}, lib));
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "rb", CompilerConfig{}, lib));
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(7), topo, "eqm", CompilerConfig{}, lib));
    service.compileSync(CompileRequest::forFamily(
        "bv", 8, topo, "awe", CompilerConfig{}, lib));
    ServiceStats s = service.stats();
    EXPECT_EQ(s.contextsCreated, 1u);
    EXPECT_EQ(s.contextsReused, 3u);
    EXPECT_EQ(s.pooledContexts, 1u);

    // A different pricing configuration gets its own context.
    CompilerConfig penalized;
    penalized.throughQuquartPenalty = 2.0;
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "eqm", penalized, lib));
    EXPECT_EQ(service.stats().contextsCreated, 2u);

    // clearCache drops pooled contexts too.
    service.clearCache();
    EXPECT_EQ(service.stats().pooledContexts, 0u);
}

TEST(ServiceContextPool, DisabledPoolBuildsColdContexts)
{
    const Topology topo = Topology::grid(6);
    ServiceOptions opts;
    opts.cacheCapacity = 0;
    opts.contextPoolCapacity = 0;
    CompilerService service(opts);
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(6), topo, "eqm", CompilerConfig{}, {});
    service.compileSync(req);
    service.compileSync(req);
    ServiceStats s = service.stats();
    EXPECT_EQ(s.contextsCreated, 2u);
    EXPECT_EQ(s.contextsReused, 0u);
    EXPECT_EQ(s.pooledContexts, 0u);
}

TEST(ServiceRequests, FamilyAndExplicitCircuitShareArtifacts)
{
    const Topology topo = Topology::grid(8);
    CompilerService service;
    const CompileArtifact by_family = service.compileSync(
        CompileRequest::forFamily("bv", 8, topo, "eqm"));
    // The registry's "bv" family is bernsteinVazirani: an explicit
    // circuit with identical content is the same request.
    const CompileArtifact by_circuit =
        service.compileSync(CompileRequest::forCircuit(
            benchmarkFamily("bv").make(8), topo, "eqm"));
    EXPECT_EQ(by_family.get(), by_circuit.get());
    EXPECT_EQ(service.stats().hits, 1u);
}

TEST(ServiceRequests, DuplicateBatchSharesOneArtifact)
{
    const Topology topo = Topology::grid(6);
    ServiceOptions opts;
    opts.threads = 8;
    CompilerService service(opts);
    std::vector<CompileRequest> reqs(
        4, CompileRequest::forCircuit(bernsteinVazirani(6), topo, "eqm"));
    auto handles = service.submitBatch(std::move(reqs));
    std::set<const CompileResult *> distinct;
    for (const auto &h : handles)
        distinct.insert(h.get().get());
    EXPECT_EQ(distinct.size(), 1u);
    // Whatever the interleaving, every request is accounted for as
    // exactly one of miss (the compiling owner), coalesced (waited on
    // the owner), or hit (arrived after completion).
    ServiceStats s = service.stats();
    EXPECT_EQ(s.misses + s.coalesced + s.hits, 4u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(ServiceRequests, HandlesReadyByServiceDestruction)
{
    // Tasks may land on the process-global pool, which outlives the
    // service; the destructor must drain them so a handle outliving
    // its service is always ready (never a dangling `this` capture).
    const Topology topo = Topology::grid(6);
    std::vector<CompileHandle> handles;
    {
        ServiceOptions opts;
        opts.threads = 0; // process default: the global pool if > 1
        CompilerService service(opts);
        std::vector<CompileRequest> reqs;
        for (const auto &name : {"eqm", "rb", "awe", "pp"})
            reqs.push_back(CompileRequest::forCircuit(
                bernsteinVazirani(6), topo, name));
        handles = service.submitBatch(std::move(reqs));
        // Service destroyed here with handles still un-waited.
    }
    for (const auto &h : handles) {
        ASSERT_TRUE(h.valid());
        EXPECT_NE(h.get(), nullptr);
    }
}

TEST(ServiceErrors, UnknownStrategyListsValidNames)
{
    try {
        makeStrategy("definitely_not_a_strategy");
        FAIL() << "makeStrategy should have thrown";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("definitely_not_a_strategy"),
                  std::string::npos);
        for (const auto &name : strategyNames())
            EXPECT_NE(msg.find(name), std::string::npos)
                << "error message should list '" << name << "'";
    }

    // The same structured error surfaces through both service entry
    // points.
    CompilerService service;
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(4), Topology::grid(4), "nope");
    EXPECT_THROW(service.compileSync(req), FatalError);
    auto handle = service.submit(req);
    EXPECT_THROW(handle.get(), FatalError);
    // Failures are not cached.
    EXPECT_EQ(service.stats().cacheSize, 0u);
}

TEST(ServiceErrors, UnknownFamilyThrows)
{
    CompilerService service;
    EXPECT_THROW(service.compileSync(CompileRequest::forFamily(
                     "no_such_family", 8, Topology::grid(8), "eqm")),
                 FatalError);
    // Explicit-circuit requests resolve to their own circuit.
    const Circuit resolved =
        CompileRequest::forCircuit(bernsteinVazirani(4),
                                   Topology::grid(4), "eqm")
            .resolveCircuit();
    EXPECT_EQ(resolved.numQubits(), 4);
}

TEST(ServiceErrors, RequestWithoutCircuitOrFamilyThrows)
{
    CompileRequest req = CompileRequest::forFamily(
        "bv", 8, Topology::grid(8), "eqm");
    req.family.clear();
    EXPECT_THROW(req.resolveCircuit(), FatalError);
}

TEST(StrategyRegistry, RoundTripsEveryName)
{
    const auto &names = strategyNames();
    ASSERT_FALSE(names.empty());
    for (const auto &name : names) {
        const auto strategy = makeStrategy(name);
        ASSERT_NE(strategy, nullptr);
        EXPECT_EQ(strategy->name(), name);
    }
    // The standard evaluation set is a subset of the registry.
    for (const auto &strat : standardStrategies()) {
        EXPECT_NE(std::find(names.begin(), names.end(), strat->name()),
                  names.end());
    }
}

// ------------------------------------------------------------------
// Byte-size-aware LRU + disk tier
// ------------------------------------------------------------------

/** The extended accounting identity every stats snapshot must satisfy:
 *  each processed request is exactly one of the five outcomes. */
::testing::AssertionResult
partitionHolds(const ServiceStats &s)
{
    if (s.requests != s.hits + s.templateHits + s.diskHits + s.misses +
                          s.coalesced)
        return ::testing::AssertionFailure()
               << "requests=" << s.requests << " != hits=" << s.hits
               << " + templateHits=" << s.templateHits
               << " + diskHits=" << s.diskHits
               << " + misses=" << s.misses
               << " + coalesced=" << s.coalesced;
    return ::testing::AssertionSuccess();
}

/** Parameterized 6-qubit circuit; same structure for every angle, so
 *  every serialized artifact has the same byte size. */
Circuit
angleCircuit(double angle)
{
    Circuit c(6, "angles");
    for (QubitId q = 0; q < 6; ++q)
        c.h(q);
    c.rz(angle, 0);
    c.cx(0, 1);
    c.cx(2, 3);
    return c;
}

std::string
serviceStorePath(const char *tag)
{
    const std::string path =
        ::testing::TempDir() + "qompress_svc_" + tag + ".log";
    std::remove(path.c_str());
    return path;
}

TEST(ServiceByteBudget, EvictsInLruOrderUnderBytePressure)
{
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;

    // Learn the (uniform) serialized artifact size first.
    CompilerService probe;
    const std::size_t unit =
        encodeCompileResult(*probe.compileSync(CompileRequest::forCircuit(
                                angleCircuit(0.1), topo, "eqm",
                                CompilerConfig{}, lib)))
            .size();
    ASSERT_GT(unit, 0u);

    ServiceOptions opts;
    opts.cacheBytesCapacity = 2 * unit; // room for exactly two
    opts.templateCacheCapacity = 0;     // isolate the memo tier
    CompilerService service(opts);
    auto req = [&](double angle) {
        return CompileRequest::forCircuit(angleCircuit(angle), topo,
                                          "eqm", CompilerConfig{}, lib);
    };

    service.compileSync(req(0.1)); // {a}
    service.compileSync(req(0.2)); // {b, a}
    EXPECT_EQ(service.stats().sizeEvictions, 0u);
    EXPECT_EQ(service.stats().bytesInUse, 2 * unit);

    service.compileSync(req(0.3)); // {c, b} -- a evicted (LRU)
    ServiceStats s = service.stats();
    EXPECT_EQ(s.sizeEvictions, 1u);
    EXPECT_EQ(s.evictions, 0u); // entry cap untouched: distinct counters
    EXPECT_EQ(s.cacheSize, 2u);
    EXPECT_LE(s.bytesInUse, s.bytesCapacity);

    service.compileSync(req(0.2)); // hit -- b now most recent
    EXPECT_EQ(service.stats().hits, 1u);
    service.compileSync(req(0.1)); // miss (was evicted); evicts c
    s = service.stats();
    EXPECT_EQ(s.sizeEvictions, 2u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_TRUE(partitionHolds(s));

    // An artifact larger than the whole budget is not retained at all.
    ServiceOptions tiny;
    tiny.cacheBytesCapacity = 1;
    tiny.templateCacheCapacity = 0;
    CompilerService cramped(tiny);
    cramped.compileSync(req(0.5));
    cramped.compileSync(req(0.5)); // recompiles: nothing stuck
    ServiceStats t = cramped.stats();
    EXPECT_EQ(t.misses, 2u);
    EXPECT_EQ(t.cacheSize, 0u);
    EXPECT_EQ(t.bytesInUse, 0u);
    EXPECT_EQ(t.sizeEvictions, 2u);
}

TEST(ServiceDiskTier, OffByDefaultLeavesBehaviorUnchanged)
{
    CompilerService service;
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "eqm");
    service.compileSync(req);
    service.compileSync(req);
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.diskWrites, 0u);
    EXPECT_EQ(s.storeRecords, 0u);
    EXPECT_EQ(s.storeBytes, 0u);
    EXPECT_EQ(s.bytesInUse, 0u); // lazy charging: no encode happened
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_TRUE(partitionHolds(s));
}

TEST(ServiceDiskTier, RestartWarmServesCatalogWithZeroCompiles)
{
    const std::string path = serviceStorePath("restart");
    const GateLibrary lib;
    const CompilerConfig cfg;

    // A catalog of five distinct requests, parameterized ones included.
    std::vector<CompileRequest> catalog;
    catalog.push_back(CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "eqm", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "rb", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        bernsteinVazirani(7), Topology::ring(8), "eqm", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        angleCircuit(0.25), Topology::grid(6), "eqm", cfg, lib));
    catalog.push_back(CompileRequest::forFamily(
        "qaoa_random", 8, Topology::grid(8), "awe", cfg, lib));

    std::vector<CompileArtifact> first;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        for (const auto &req : catalog)
            first.push_back(service.compileSync(req));
        const ServiceStats s = service.stats();
        EXPECT_EQ(s.misses, catalog.size());
        EXPECT_EQ(s.diskWrites, catalog.size());
        EXPECT_EQ(s.storeRecords, catalog.size());
        EXPECT_GT(s.storeBytes, 0u);
        EXPECT_TRUE(partitionHolds(s));
    }

    // The warm-restart proof: a new service on the same store serves
    // the whole catalog without one full compile, bit-identically.
    ServiceOptions opts;
    opts.storePath = path;
    CompilerService restarted(opts);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const CompileArtifact art = restarted.compileSync(catalog[i]);
        const Circuit c = catalog[i].resolveCircuit();
        EXPECT_EQ(artifactDiff(*art, *first[i]), "")
            << "catalog entry " << i;
    }
    const ServiceStats s = restarted.stats();
    EXPECT_EQ(s.misses, 0u);           // zero full compiles...
    EXPECT_EQ(s.contextsCreated, 0u);  // ...so no context was built
    EXPECT_EQ(s.diskHits, catalog.size());
    EXPECT_EQ(s.diskWrites, 0u); // nothing new to persist
    EXPECT_TRUE(partitionHolds(s));

    // Second pass is served by the (now warm) memo tier, not the disk.
    for (const auto &req : catalog)
        restarted.compileSync(req);
    const ServiceStats s2 = restarted.stats();
    EXPECT_EQ(s2.hits, catalog.size());
    EXPECT_EQ(s2.diskHits, catalog.size());
    EXPECT_TRUE(partitionHolds(s2));
    std::remove(path.c_str());
}

TEST(ServiceDiskTier, RebindArtifactsArePersistedToo)
{
    const std::string path = serviceStorePath("rebind");
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;

    std::vector<CompileArtifact> first;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        // angle 0.1 full-compiles and plants a template; angle 0.2 is
        // served by rebind -- and must STILL be written behind, or a
        // restarted service's warmth would depend on request order.
        first.push_back(service.compileSync(CompileRequest::forCircuit(
            angleCircuit(0.1), topo, "eqm", CompilerConfig{}, lib)));
        first.push_back(service.compileSync(CompileRequest::forCircuit(
            angleCircuit(0.2), topo, "eqm", CompilerConfig{}, lib)));
        const ServiceStats s = service.stats();
        EXPECT_EQ(s.templateHits, 1u);
        EXPECT_EQ(s.diskWrites, 2u);
        EXPECT_EQ(s.storeRecords, 2u);
        EXPECT_TRUE(partitionHolds(s));
    }

    // New service, REBOUND artifact requested first: disk hit, no
    // compile, bit-identical to the first boot's rebind.
    ServiceOptions opts;
    opts.storePath = path;
    CompilerService restarted(opts);
    const CompileArtifact again =
        restarted.compileSync(CompileRequest::forCircuit(
            angleCircuit(0.2), topo, "eqm", CompilerConfig{}, lib));
    EXPECT_EQ(artifactDiff(*again, *first[1]), "");
    const ServiceStats s = restarted.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.misses, 0u);

    // The disk-loaded artifact planted a template: a THIRD angle is
    // served by rebind, not a full compile.
    restarted.compileSync(CompileRequest::forCircuit(
        angleCircuit(0.3), topo, "eqm", CompilerConfig{}, lib));
    const ServiceStats s2 = restarted.stats();
    EXPECT_EQ(s2.templateHits, 1u);
    EXPECT_EQ(s2.misses, 0u);
    EXPECT_TRUE(partitionHolds(s2));
    std::remove(path.c_str());
}

TEST(ServiceDiskTier, TemplateHitsOnStoredKeysAreNotRewritten)
{
    const std::string path = serviceStorePath("known_keys");
    const Topology topo = Topology::grid(6);
    const std::vector<double> angles = {0.1, 0.2, 0.3, 0.4, 0.5};
    auto req = [&](double angle) {
        return CompileRequest::forCircuit(angleCircuit(angle), topo, "eqm");
    };
    std::uint64_t store_bytes = 0;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        for (const double a : angles)
            service.compileSync(req(a));
        const ServiceStats s = service.stats();
        ASSERT_EQ(s.storeRecords, angles.size());
        store_bytes = s.storeBytes;
    }

    // A one-entry memo over the stored sweep: the first request loads
    // from disk and plants the template, every later one is a template
    // hit whose key the store already indexes. Nothing is written, and
    // the memo is charged what encoding the artifact would have cost,
    // whether or not a byte budget is set.
    for (const std::size_t budget : {std::size_t{0}, std::size_t{1} << 30}) {
        ServiceOptions opts;
        opts.storePath = path;
        opts.cacheCapacity = 1;
        opts.cacheBytesCapacity = budget;
        CompilerService service(opts);
        for (int pass = 0; pass < 2; ++pass) {
            for (const double a : angles) {
                const CompileArtifact art = service.compileSync(req(a));
                const ServiceStats s = service.stats();
                EXPECT_EQ(s.diskWrites, 0u);
                EXPECT_EQ(s.storeRecords, angles.size());
                EXPECT_EQ(s.storeBytes, store_bytes);
                EXPECT_EQ(s.cacheSize, 1u);
                EXPECT_EQ(s.bytesInUse, encodeCompileResult(*art).size())
                    << "budget " << budget << " angle " << a;
                EXPECT_TRUE(partitionHolds(s));
            }
        }
        const ServiceStats s = service.stats();
        EXPECT_EQ(s.diskHits, 1u);
        EXPECT_EQ(s.templateHits, 2 * angles.size() - 1);
        EXPECT_EQ(s.misses, 0u);
        EXPECT_EQ(s.sizeEvictions, 0u);
    }
    std::remove(path.c_str());
}

TEST(ServiceDiskTier, CorruptStoreRecordFallsBackToCompile)
{
    const std::string path = serviceStorePath("corrupt");
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "eqm");
    CompileArtifact direct;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        direct = service.compileSync(req);
    }
    {
        // Corrupt the stored record's payload (the frame CRC guards
        // the log scan, so flip a byte AND fix nothing: recovery drops
        // the frame; the service must quietly recompile).
        std::FILE *f = std::fopen(path.c_str(), "r+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, -9, SEEK_END);
        const int c = std::fgetc(f);
        std::fseek(f, -9, SEEK_END);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }
    ServiceOptions opts;
    opts.storePath = path;
    CompilerService service(opts);
    const CompileArtifact art = service.compileSync(req);
    EXPECT_EQ(artifactDiff(*art, *direct), "");
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_TRUE(partitionHolds(s));
    std::remove(path.c_str());
}

TEST(ServiceDevices, ByNameAndExplicitContentServeTheSameBytes)
{
    // A calibrated device requested by name and the same topology and
    // calibration content sent explicitly resolve to one key: whichever
    // comes second is a memo hit on the first's artifact.
    CompilerService svc;
    auto cal = DeviceCalibration::uniform("grid64", 64, 90000.0, 30000.0,
                                          0.02);
    cal.setEdge(0, 1, 0.95, 1.5);
    cal.setEdge(9, 17, 0.9, 0.8);
    svc.devices().setCalibration("grid64", cal);
    const auto dev = svc.devices().snapshot("grid64");
    CompilerConfig cfg;
    cfg.calibration = std::make_shared<const DeviceCalibration>(cal);

    std::uint64_t hits = 0;
    for (const char *strategy : {"eqm", "rb"}) {
        for (const bool by_name_first : {true, false}) {
            const Circuit c = bernsteinVazirani(by_name_first ? 10 : 12);
            const auto by_name =
                CompileRequest::forDevice(c, "grid64", strategy);
            const auto by_content = CompileRequest::forCircuit(
                c, dev->topology, strategy, cfg);
            const CompileArtifact first =
                svc.compileSync(by_name_first ? by_name : by_content);
            const CompileArtifact second =
                svc.compileSync(by_name_first ? by_content : by_name);
            EXPECT_EQ(first, second) << strategy;
            EXPECT_EQ(encodeCompileResult(*first),
                      encodeCompileResult(*second))
                << strategy;
            EXPECT_EQ(svc.stats().hits, ++hits) << strategy;
        }
    }
    EXPECT_TRUE(partitionHolds(svc.stats()));
}

TEST(ServiceFingerprints, ComponentsDistinguishContent)
{
    const Topology g8 = Topology::grid(8);
    EXPECT_EQ(topologyFingerprint(g8),
              topologyFingerprint(Topology::grid(8)));
    EXPECT_NE(topologyFingerprint(g8),
              topologyFingerprint(Topology::ring(8)));

    GateLibrary lib;
    const std::uint64_t base = libraryFingerprint(lib);
    EXPECT_EQ(base, libraryFingerprint(GateLibrary{}));
    lib.setT1(GateLibrary::kT1QubitNs, GateLibrary::kT1QuquartNs * 2);
    EXPECT_NE(base, libraryFingerprint(lib));

    CompilerConfig a, b;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
    b.lookaheadWeight = 0.5;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    // threads is lane count, not content: results are lane-invariant,
    // so it must not split the cache.
    CompilerConfig c;
    c.threads = 8;
    EXPECT_EQ(configFingerprint(a), configFingerprint(c));
}

} // namespace
} // namespace qompress
