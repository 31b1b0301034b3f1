#include "service/compiler_service.hh"

#include <algorithm>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "ir/fingerprint.hh"
#include "service/artifact_store.hh"

namespace qompress {

const char *
diskTierStateName(DiskTierState state)
{
    switch (state) {
    case DiskTierState::Off:
        return "off";
    case DiskTierState::Ok:
        return "ok";
    case DiskTierState::Degraded:
        return "degraded";
    }
    return "?";
}

// ------------------------------------------------------------------
// Component fingerprints
// ------------------------------------------------------------------

std::uint64_t
libraryFingerprint(const GateLibrary &lib)
{
    Fingerprinter f;
    const int n = static_cast<int>(PhysGateClass::NumClasses);
    f.mixI32(n);
    for (int c = 0; c < n; ++c) {
        const auto cls = static_cast<PhysGateClass>(c);
        f.mixDouble(lib.duration(cls));
        f.mixDouble(lib.fidelity(cls));
    }
    f.mixDouble(lib.t1Qubit());
    f.mixDouble(lib.t1Ququart());
    return f.value();
}

std::uint64_t
configFingerprint(const CompilerConfig &cfg)
{
    return configFingerprint(
        cfg, cfg.calibration ? cfg.calibration->fingerprint() : 0);
}

std::uint64_t
configFingerprint(const CompilerConfig &cfg, std::uint64_t calibration_fp)
{
    Fingerprinter f;
    f.mixI32(cfg.chargeInitialEnc ? 1 : 0);
    f.mixDouble(cfg.throughQuquartPenalty);
    f.mixDouble(cfg.lookaheadWeight);
    // validate changes no output, but an artifact compiled without the
    // check must not answer a request that asked for it.
    f.mixI32(cfg.validate ? 1 : 0);
    // The calibration is priced into every compile, so its content
    // fingerprint is part of the config identity: installing a new
    // calibration changes this value and with it every memo/template/
    // disk key priced against the old record -- the partial-
    // invalidation contract, extended to devices. Null (uncalibrated)
    // mixes a fixed 0 so pre-device keys are preserved.
    f.mixU64(calibration_fp);
    // cfg.threads deliberately excluded: results are lane-invariant,
    // so requests differing only in lane count share one artifact.
    return f.value();
}

// ------------------------------------------------------------------
// CompileRequest
// ------------------------------------------------------------------

CompileRequest
CompileRequest::forCircuit(Circuit c, Topology topo, std::string strategy,
                           CompilerConfig cfg, GateLibrary lib)
{
    CompileRequest req(std::move(topo));
    req.strategy = std::move(strategy);
    req.library = std::move(lib);
    req.config = std::move(cfg);
    req.circuit = std::move(c);
    return req;
}

CompileRequest
CompileRequest::forFamily(std::string family, int size, Topology topo,
                          std::string strategy, CompilerConfig cfg,
                          GateLibrary lib)
{
    CompileRequest req(std::move(topo));
    req.strategy = std::move(strategy);
    req.library = std::move(lib);
    req.config = std::move(cfg);
    req.family = std::move(family);
    req.size = size;
    return req;
}

CompileRequest
CompileRequest::forDevice(Circuit c, std::string device,
                          std::string strategy, CompilerConfig cfg,
                          GateLibrary lib)
{
    // The topology is a placeholder: compileImpl swaps in the
    // registered device's topology (and calibration) before anything
    // reads it. CompileRequest has no unset-topology state because
    // Topology is not default-constructible.
    CompileRequest req =
        forCircuit(std::move(c), Topology::line(1), std::move(strategy),
                   cfg, std::move(lib));
    req.device = std::move(device);
    return req;
}

Circuit
CompileRequest::resolveCircuit() const
{
    if (circuit)
        return *circuit;
    QFATAL_IF(family.empty(),
              "compile request names neither a circuit nor a registry "
              "family");
    return benchmarkFamily(family).make(size);
}

// ------------------------------------------------------------------
// CompileHandle
// ------------------------------------------------------------------

CompileArtifact
CompileHandle::get() const
{
    QPANIC_IF(!fut_.valid(), "get() on an empty CompileHandle");
    return fut_.get();
}

// ------------------------------------------------------------------
// CompilerService
// ------------------------------------------------------------------

CompilerService::CompilerService(ServiceOptions opts)
    : opts_(std::move(opts)),
      memo_(opts_.cacheCapacity, opts_.cacheBytesCapacity),
      templates_(opts_.templateCacheCapacity)
{
    if (!opts_.storePath.empty()) {
        StoreOptions sopts;
        sopts.fsync = opts_.storeFsync;
        sopts.fsyncIntervalBytes = opts_.storeFsyncIntervalBytes;
        store_ = std::make_unique<ArtifactStore>(opts_.storePath, sopts);
    }
}

CompilerService::~CompilerService()
{
    // Submitted tasks capture `this` and may be queued on the process
    // global pool, which outlives the service; block until every one
    // has run before members are torn down. (Service-owned pools_
    // would drain their tasks on join anyway; the global pool is the
    // case this wait exists for.)
    drain();
}

void
CompilerService::drain()
{
    std::unique_lock<std::mutex> lk(pendingMu_);
    pendingCv_.wait(lk, [this] { return pending_ == 0; });
}

CompileArtifact
CompilerService::compileSync(const CompileRequest &req)
{
    return compileImpl(req);
}

CompileHandle
CompilerService::submit(CompileRequest req)
{
    return submitOn(poolFor(-1), std::move(req));
}

std::vector<CompileHandle>
CompilerService::submitBatch(std::vector<CompileRequest> reqs, int threads)
{
    ThreadPool *pool = poolFor(threads);
    std::vector<CompileHandle> handles;
    handles.reserve(reqs.size());
    for (auto &req : reqs)
        handles.push_back(submitOn(pool, std::move(req)));
    return handles;
}

CompileHandle
CompilerService::submitOn(ThreadPool *pool, CompileRequest req)
{
    if (!pool) {
        // Serial (or worker-nested) submission: run now, but still
        // deliver failure through the handle so sync and async callers
        // observe exceptions the same way.
        std::promise<CompileArtifact> prom;
        try {
            prom.set_value(compileImpl(req));
        } catch (...) {
            prom.set_exception(std::current_exception());
        }
        return CompileHandle(prom.get_future().share());
    }
    {
        std::lock_guard<std::mutex> lk(pendingMu_);
        ++pending_;
    }
    auto task = [this, r = std::move(req)]() -> CompileArtifact {
        // Count down whether the compile returns or throws, so the
        // destructor's drain-wait can never hang.
        struct Done
        {
            CompilerService *svc;
            ~Done()
            {
                std::lock_guard<std::mutex> lk(svc->pendingMu_);
                --svc->pending_;
                svc->pendingCv_.notify_all();
            }
        } done{this};
        return compileImpl(r);
    };
    return CompileHandle(pool->submit(std::move(task)).share());
}

ThreadPool *
CompilerService::poolFor(int threads)
{
    int want = threads >= 0 ? threads : opts_.threads;
    if (want <= 0)
        want = ThreadPool::defaultThreadCount();
    // Nested submission (a compile that itself talks to the service)
    // degrades to inline execution, mirroring ThreadPool::forRequest:
    // a worker blocking on the queue it drains would deadlock.
    if (want <= 1 || ThreadPool::onWorkerThread())
        return nullptr;
    if (want == ThreadPool::defaultThreadCount())
        return &ThreadPool::global();
    std::lock_guard<std::mutex> lk(poolMu_);
    auto &slot = pools_[want];
    if (!slot)
        slot = std::make_unique<ThreadPool>(want);
    return slot.get();
}

CompileArtifact
CompilerService::compileImpl(const CompileRequest &req)
{
    // A by-name request resolves against the registry first: the
    // device snapshot's topology and CURRENT calibration replace the
    // request's own, then the request proceeds as an ordinary
    // content-addressed compile. Because the calibration is part of
    // configFingerprint, a calibration update naturally re-keys every
    // subsequent request for that device (and only that device). The
    // snapshot is shared, not copied, and carries both fingerprints,
    // so resolving costs one lookup and one config copy.
    if (!req.device.empty()) {
        const std::shared_ptr<const Device> dev =
            devices_.snapshot(req.device);
        CompilerConfig cfg = req.config;
        cfg.calibration = dev->calibration;
        return compileTarget(
            req, {dev->topology, cfg, dev->topologyFp,
                  configFingerprint(cfg, dev->calibrationFp)});
    }
    return compileTarget(req, {req.topology, req.config,
                               topologyFingerprint(req.topology),
                               configFingerprint(req.config)});
}

CompileArtifact
CompilerService::compileTarget(const CompileRequest &req,
                               const Target &target)
{
    // Resolve the circuit first: the memo key hashes its content.
    std::optional<Circuit> resolved;
    const Circuit *circuit = nullptr;
    if (req.circuit) {
        circuit = &*req.circuit;
    } else {
        resolved.emplace(req.resolveCircuit());
        circuit = &*resolved;
    }

    RequestKey key;
    key.circuit = circuitFingerprint(*circuit);
    key.topo = target.topoFp;
    key.lib = libraryFingerprint(req.library);
    key.cfg = target.cfgFp;
    key.strategy = req.strategy;
    Fingerprinter cf;
    cf.mixU64(key.topo);
    cf.mixU64(key.lib);
    cf.mixU64(key.cfg);
    const std::uint64_t ctx_fp = cf.value();

    // Template eligibility and the structural key are resolved lazily,
    // on the exact-miss path only: an exact hit (the dominant warm
    // case) must not pay the O(gates) structural walk.
    const bool tier_on =
        opts_.templateCacheCapacity > 0 && !req.fullCompile;
    bool tmpl_eligible = false;
    RequestKey tkey;

    std::promise<CompileArtifact> prom;
    std::shared_future<CompileArtifact> wait_on;
    bool memo = false;
    TemplatePtr tmpl;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++requests_;
        memo = memo_.capacity() > 0;
        if (memo) {
            if (const CompileArtifact *hit = memo_.get(key)) {
                ++hits_;
                return *hit;
            }
            auto jt = inflight_.find(key);
            if (jt != inflight_.end()) {
                // An identical compile is already running; wait for it
                // (outside the lock) instead of compiling twice.
                ++coalesced_;
                wait_on = jt->second;
            }
        }
        if (!wait_on.valid()) {
            // This request will produce the artifact itself -- by
            // rebinding a cached template when one matches the
            // circuit's structure, else by a full compile. Only
            // parameterized circuits enter the tier (for a fixed
            // circuit -- BV, QFT-like structures -- the exact tier
            // already covers every repeat, so the structural walk is
            // skipped entirely).
            tmpl_eligible =
                tier_on &&
                std::any_of(
                    circuit->gates().begin(), circuit->gates().end(),
                    [](const Gate &g) { return gateHasParam(g.type); });
            if (tmpl_eligible) {
                tkey = key;
                tkey.circuit =
                    structuralCircuitFingerprint(*circuit).value;
                if (const TemplatePtr *hit = templates_.get(tkey)) {
                    ++templateHits_;
                    tmpl = *hit;
                } else {
                    // Eligible but no template; whether this request
                    // lands as a diskHit or a miss is only knowable
                    // after the disk probe below.
                    ++templateMisses_;
                }
            }
            if (memo)
                inflight_.emplace(key, prom.get_future().share());
        }
    }
    if (wait_on.valid())
        return wait_on.get(); // rethrows the owner's exception

    // Disk tier: probed only after both in-memory tiers miss, and only
    // when the circuit breaker admits it (a degraded store is skipped
    // outright). The loaded blob doubles as the byte-budget charge
    // below (its size IS the serialized size). A corrupt record
    // decodes to FatalError and falls through to a fresh compile --
    // the store is a cache, never an authority. An I/O error does the
    // same, and additionally feeds the breaker.
    CompileArtifact artifact;
    std::vector<std::uint8_t> blob;
    bool from_disk = false;
    if (!tmpl && store_ && admitDiskRead()) {
        const StoreStatus rc = store_->loadStatus(key, blob);
        if (rc != StoreStatus::Miss) {
            // A Miss is an index lookup -- it proves nothing about the
            // disk, so only real reads feed the breaker.
            std::lock_guard<std::mutex> lk(mu_);
            if (rc == StoreStatus::Ok)
                noteStoreSuccessLocked();
            else
                noteStoreErrorLocked();
        }
        if (rc == StoreStatus::Ok) {
            try {
                artifact = std::make_shared<const CompileResult>(
                    decodeCompileResult(blob));
                from_disk = true;
            } catch (const FatalError &) {
                blob.clear();
            }
        } else {
            blob.clear(); // a failed read may have left partial bytes
        }
    }

    try {
        if (from_disk) {
            // Nothing to run; the decode above already produced it.
        } else if (tmpl) {
            // O(gates) path: substitute this instance's angles into
            // the template's compiled structure and re-price. The
            // template key covers the config fingerprint, so the
            // template was built under this same calibration.
            artifact = std::make_shared<const CompileResult>(
                rebindTemplate(*tmpl, *circuit, req.library,
                               target.cfg.calibration.get()));
        } else {
            artifact = compileUncached(req, target, *circuit, ctx_fp);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        // Keep the request partition exact for failures too: a throw
        // out of rebind stays under its templateHit; anything else
        // counts as the miss it (unsuccessfully) compiled for.
        if (!tmpl)
            ++misses_;
        if (memo) {
            prom.set_exception(std::current_exception());
            inflight_.erase(key);
        }
        throw;
    }

    // Serialize once, outside the lock, and only when somebody needs
    // the bytes: the store (write-behind) or the byte budget (charge).
    // With both features off the encode is skipped so the memo-only
    // hot path stays exactly as cheap as before this tier existed. A
    // key the store already indexes (every template hit on a warm
    // store) is neither re-encoded nor rewritten: compiles are
    // deterministic, so its record's size is the encoded size.
    std::size_t bytes = blob.size();
    bool wrote = false;
    if (!from_disk) {
        const auto stored = store_ ? store_->blobSize(key) : std::nullopt;
        if (stored) {
            bytes = static_cast<std::size_t>(*stored);
        } else if (store_ || opts_.cacheBytesCapacity > 0) {
            blob = encodeCompileResult(*artifact);
            bytes = blob.size();
            if (store_ && admitDiskWrite()) {
                wrote = store_->put(key, blob);
                std::lock_guard<std::mutex> lk(mu_);
                if (wrote)
                    noteStoreSuccessLocked();
                else
                    noteStoreErrorLocked();
            }
        }
    }

    // Extract a template from a successful full compile OR disk load
    // of an eligible request (outside the lock: the binding walk is
    // O(gates)). Disk-loaded artifacts planting templates is what lets
    // a restarted service serve parameter sweeps by rebind again.
    TemplatePtr fresh;
    if (tmpl_eligible && !tmpl)
        fresh = std::make_shared<const CompiledTemplate>(
            makeTemplate(artifact, *circuit));

    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!tmpl) {
            if (from_disk)
                ++diskHits_;
            else
                ++misses_;
        }
        if (wrote)
            ++diskWrites_;
        // Keep-first on a racing extraction: templates of the same
        // structure are interchangeable, so the loser is dropped.
        if (fresh)
            templates_.insert(tkey, std::move(fresh));
        if (memo) {
            memo_.insert(key, artifact, bytes);
            prom.set_value(artifact);
            inflight_.erase(key);
        }
    }
    return artifact;
}

CompileArtifact
CompilerService::compileUncached(const CompileRequest &req,
                                 const Target &target,
                                 const Circuit &circuit,
                                 std::uint64_t ctx_fp)
{
    // makeStrategy first: an unknown name must fail before a context
    // is built for it.
    const auto strategy = makeStrategy(req.strategy);
    auto pc = acquireContext(target, req.library, ctx_fp);
    // The compile runs against the pooled copies (the context holds
    // pointers into them) but the *caller's* config, so per-request
    // knobs the context does not price (threads) are honored. The two
    // configs agree on every pricing field by construction of ctx_fp.
    CompileResult res = strategy->compile(circuit, pc->topo, pc->lib,
                                          target.cfg, &*pc->ctx);
    // Pool the context (with its warmed distance fields) only on
    // success; a compile that threw may leave it mid-mutation.
    releaseContext(std::move(pc));
    return std::make_shared<const CompileResult>(std::move(res));
}

std::unique_ptr<CompilerService::PooledContext>
CompilerService::acquireContext(const Target &target,
                                const GateLibrary &lib,
                                std::uint64_t ctx_fp)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
            // Matching is by the 64-bit pricing fingerprint; the
            // structural conjuncts below catch the topology-shape
            // slice of a collision cheaply but do NOT cover library
            // or config content — those rest on the fingerprint alone
            // (see the Fingerprinter doc for the accepted trade).
            if ((*it)->fp == ctx_fp &&
                (*it)->topo.numUnits() == target.topo.numUnits() &&
                (*it)->topo.name() == target.topo.name()) {
                auto pc = std::move(*it);
                idle_.erase(std::next(it).base());
                ++contextsReused_;
                return pc;
            }
        }
        ++contextsCreated_;
    }
    // Build outside the lock: graph expansion is the expensive part.
    return std::make_unique<PooledContext>(ctx_fp, target.topo, lib,
                                           target.cfg);
}

void
CompilerService::releaseContext(std::unique_ptr<PooledContext> pc)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (opts_.contextPoolCapacity == 0)
        return; // pooling disabled: drop (context dies here)
    idle_.push_back(std::move(pc));
    while (idle_.size() > opts_.contextPoolCapacity)
        idle_.erase(idle_.begin()); // oldest idle context retires
}

bool
CompilerService::admitDiskRead()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!tierDegraded_)
            return true;
        const double down_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - degradedSince_)
                .count();
        if (down_ms < opts_.storeCooldownMs || probeInFlight_) {
            ++degradedSkips_;
            return false;
        }
        // Cooldown elapsed: this request becomes the single half-open
        // probe. Everyone else keeps skipping until it resolves.
        probeInFlight_ = true;
    }
    const bool ok = store_->probe();
    std::lock_guard<std::mutex> lk(mu_);
    probeInFlight_ = false;
    if (ok) {
        noteStoreSuccessLocked(); // re-closes the breaker
        return true;
    }
    noteStoreErrorLocked(); // refreshes degradedSince_
    ++degradedSkips_;
    return false;
}

bool
CompilerService::admitDiskWrite()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!tierDegraded_)
        return true;
    // Writes never probe: write-behind is optional, so recovery is the
    // read path's job and a broken disk costs misses one syscall, not
    // one syscall per would-be persist.
    ++degradedSkips_;
    return false;
}

void
CompilerService::noteStoreErrorLocked()
{
    ++storeErrors_;
    ++consecutiveStoreErrors_;
    if (opts_.storeErrorThreshold == 0)
        return; // breaker disabled: count errors but never degrade
    if (consecutiveStoreErrors_ >= opts_.storeErrorThreshold) {
        // Entering degraded, or refreshing the cooldown clock after a
        // failed half-open probe -- either way the tier stays dark for
        // another full cooldown from *now*.
        tierDegraded_ = true;
        degradedSince_ = std::chrono::steady_clock::now();
    }
}

void
CompilerService::noteStoreSuccessLocked()
{
    consecutiveStoreErrors_ = 0;
    if (tierDegraded_) {
        tierDegraded_ = false;
        ++recoveries_;
    }
}

ServiceStats
CompilerService::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s;
    s.requests = requests_;
    s.hits = hits_;
    s.misses = misses_;
    s.coalesced = coalesced_;
    s.evictions = memo_.evictions();
    s.cacheSize = memo_.size();
    s.cacheCapacity = memo_.capacity();
    s.contextsCreated = contextsCreated_;
    s.contextsReused = contextsReused_;
    s.pooledContexts = idle_.size();
    s.templateHits = templateHits_;
    s.templateMisses = templateMisses_;
    s.templateEvictions = templates_.evictions();
    s.templateSize = templates_.size();
    s.templateCapacity = templates_.capacity();
    s.sizeEvictions = memo_.sizeEvictions();
    s.bytesInUse = memo_.bytes();
    s.bytesCapacity = memo_.byteBudget();
    s.diskHits = diskHits_;
    s.diskWrites = diskWrites_;
    s.storeErrors = storeErrors_;
    s.degradedSkips = degradedSkips_;
    s.recoveries = recoveries_;
    s.tierState = !store_ ? DiskTierState::Off
                          : (tierDegraded_ ? DiskTierState::Degraded
                                           : DiskTierState::Ok);
    if (store_) {
        s.storeRecords = store_->records();
        s.storeBytes = store_->bytesOnDisk();
    }
    return s;
}

void
CompilerService::clearCache()
{
    std::lock_guard<std::mutex> lk(mu_);
    memo_.clear();
    idle_.clear();
    templates_.clear();
    // store_ deliberately untouched: the disk tier exists to survive
    // in-memory cache drops and process restarts.
    // In-flight compiles keep their local promises; entries left in
    // inflight_ are owned by running compiles and expire when they
    // finish. Artifacts already handed out stay alive through their
    // shared_ptrs.
}

void
CompilerService::setCacheCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lk(mu_);
    memo_.setCapacity(capacity);
}

} // namespace qompress
