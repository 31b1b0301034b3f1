/**
 * @file
 * The benchmark's workloads: how the service is configured and warmed,
 * and the seeded request stream it is then driven with.
 *
 * Every input is QASM text plus a registered device name and a strategy
 * name, which is exactly what qompressd's POST /compile hands the
 * service. Request i of a stream is a pure function of (seed, i), so the
 * traced run and the stage replay regenerate the same inputs instead of
 * holding them in memory.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/compiler_service.hh"

namespace perfbench {

struct Input
{
    std::shared_ptr<const std::string> qasm;
    std::string device;
    std::string strategy;
};

struct Workload
{
    std::string name;

    /** Service knobs; the runner fills storePath when useStore is set
     *  (a fresh temporary directory per set-up). */
    qompress::ServiceOptions options;
    bool useStore = false;

    /** Set-up leaves nothing to compile: the measured stream must have
     *  no misses, no store errors and no failed request. */
    bool expectWarm = false;

    /** Requests per pass (at least 1000, so a p99 has ten samples above
     *  it). Every pass sends requests 0 .. passRequests-1, so the counts
     *  a pass produces repeat exactly for a seed whatever the host's
     *  speed. */
    std::uint64_t passRequests = 0;

    /** Compiled into the store once per run, before the first set-up;
     *  every set-up then opens a copy of that store (a warm restart). */
    std::vector<Input> storeContent;

    /** Number of warm-up requests sent during set-up, and the k-th of
     *  them. Generating one is a copy of pre-built text, so set-up time
     *  holds no input generation. */
    std::uint64_t warmupCount = 0;
    std::function<Input(std::uint64_t)> warmup;

    /** Request i of the measured stream. */
    std::function<Input(std::uint64_t)> request;

    /** A fixed suite, the same for every seed, served after the
     *  measured passes; the quality outputs (EPS, routing gates) are
     *  taken over its artifacts, so they repeat exactly across runs and
     *  seeds. (EPS of different circuits spans hundreds of orders of
     *  magnitude, so a geometric mean over a seeded sample would move
     *  with the seed.) */
    std::vector<Input> qualitySuite;

    /** Circuits of at most 10 qubits, sent through the same service
     *  path after the measured passes and checked by statevector. */
    std::vector<Input> smallSlice;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build a workload; throws std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** A per-request generator seed: mixes the run seed and an index. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t i);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
