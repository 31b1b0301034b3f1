/**
 * @file
 * Stage replay: re-runs a cold compile through the public stage
 * functions the shared pipeline is made of (decomposeToNativeGates,
 * InteractionModel, choosePairs, mapCircuit, routeCircuit,
 * scheduleCompiled, validateCompiled, computeMetrics), with one span per
 * stage, and returns the encoded artifact so the caller can check it
 * byte for byte against what the service served.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "compiler/pipeline.hh"
#include "trace.hh"

namespace perfbench {

/** Distance-field cache counters of one replayed compile. */
struct CacheDelta
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t revalidations = 0;
};

class StageReplay
{
  public:
    explicit StageReplay(const qompress::DeviceRegistry &devices)
        : devices_(devices)
    {
    }

    /**
     * Replay one compile of @p circuit on @p device under @p strategy,
     * recording a "replay" span with one child per stage.
     *
     * Contexts are kept per device, as the service's context pool keys
     * them (by topology, library and config, not by strategy), so the
     * distance-field cache sees the same history as the service's.
     */
    std::vector<std::uint8_t> run(const qompress::Circuit &circuit,
                                  const std::string &device,
                                  const std::string &strategy,
                                  Tracer &tracer, std::uint64_t request,
                                  CacheDelta &cache);

    /** Forget @p device's context. The service drops a pooled context
     *  whose compile threw, so the replay does too. */
    void dropContext(const std::string &device);

  private:
    /** A context with the inputs it points into (cf. the service's
     *  PooledContext). */
    struct Context
    {
        explicit Context(qompress::Device d) : device(std::move(d)) {}

        qompress::Device device;
        qompress::GateLibrary library;
        qompress::CompilerConfig config;
        std::unique_ptr<qompress::CompileContext> ctx;
    };

    Context &contextFor(const std::string &device);

    const qompress::DeviceRegistry &devices_;
    std::map<std::string, std::unique_ptr<Context>> contexts_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
