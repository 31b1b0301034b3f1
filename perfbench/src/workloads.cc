#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/rng.hh"

namespace perfbench {

using qompress::Circuit;
using qompress::Rng;

namespace {

const std::vector<std::string> kStrategies = {"eqm", "rb", "awe",
                                              "qubit_only"};

std::shared_ptr<const std::string>
qasmOf(const Circuit &c)
{
    return std::make_shared<const std::string>(c.toQasm());
}

/** A fixed permutation of [0, n): the cell order of a stream. It does
 *  not depend on the run seed, so every seed sees the same mix. */
std::vector<int>
fixedOrder(int n, std::uint64_t salt)
{
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(salt);
    rng.shuffle(order);
    return order;
}

qompress::QaoaOptions
qaoaOrder(Rng &rng)
{
    qompress::QaoaOptions opts;
    opts.order_seed = rng();
    return opts;
}

// ------------------------------------------------------------ cold

const std::vector<std::string> kColdDevices = {"heavyhex65", "heavyhex127",
                                               "grid64"};
const std::vector<std::string> kColdFamilies = {"qaoa_random", "qaoa_torus",
                                                "qaoa_cylinder", "bv"};
const std::vector<int> kColdSizes = {20, 30, 40, 50, 60};

/** A fresh circuit of @p family with @p n qubits: @p rng draws the QAOA
 *  edge order or the BV secret; a random graph comes from @p graph_seed. */
Circuit
coldCircuit(const std::string &family, int n, std::uint64_t graph_seed,
            Rng &rng)
{
    if (family == "bv")
        return qompress::bernsteinVazirani(n, rng());
    const auto opts = qaoaOrder(rng);
    if (family == "qaoa_random")
        return qompress::qaoaFromGraph(
            qompress::randomGraph(n, 0.3, graph_seed), opts);
    if (family == "qaoa_torus")
        return qompress::qaoaFromGraph(qompress::torusGraph(n / 4, 4), opts);
    return qompress::qaoaFromGraph(qompress::cylinderGraph(n / 4, 4), opts);
}

/** A fresh instance of one (family, size, strategy, device) cell. Each
 *  cell keeps one random graph, so a pass does the same mix of work
 *  whatever the seed; instances differ in edge order or secret. */
Input
coldCell(int cell, std::uint64_t instance_seed)
{
    const std::uint64_t graph_seed = mixSeed(0x9a9aULL, cell);
    const auto &device = kColdDevices[cell % kColdDevices.size()];
    cell /= static_cast<int>(kColdDevices.size());
    const auto &strategy = kStrategies[cell % kStrategies.size()];
    cell /= static_cast<int>(kStrategies.size());
    const int n = kColdSizes[cell % kColdSizes.size()];
    cell /= static_cast<int>(kColdSizes.size());
    Rng rng(instance_seed);
    return {qasmOf(coldCircuit(kColdFamilies[cell], n, graph_seed, rng)),
            device, strategy};
}

Workload
coldCompile(std::uint64_t seed)
{
    Workload w;
    w.name = "cold_compile";
    w.useStore = true;
    const int cells = static_cast<int>(kColdFamilies.size() *
                                       kColdSizes.size() *
                                       kStrategies.size() *
                                       kColdDevices.size());
    w.passRequests = 1000;
    const auto order = fixedOrder(cells, 0xc01dULL);
    w.request = [seed, order](std::uint64_t i) {
        return coldCell(order[i % order.size()], mixSeed(seed, i));
    };
    for (int cell = 0; cell < cells; ++cell)
        w.qualitySuite.push_back(coldCell(cell, mixSeed(0xc01dULL, cell)));

    // Warm-up: one small compile per device, so each device's pooled
    // context exists before timing (a deployment pays that once).
    std::vector<Input> warm;
    for (std::size_t d = 0; d < kColdDevices.size(); ++d)
        warm.push_back({qasmOf(qompress::bernsteinVazirani(
                            12, 0xabcULL + d)),
                        kColdDevices[d], "eqm"});
    w.warmupCount = warm.size();
    w.warmup = [warm](std::uint64_t k) { return warm[k]; };

    Rng rng(mixSeed(seed, 1ULL << 48));
    const std::vector<std::pair<std::string, int>> small = {
        {"qaoa_random", 10}, {"qaoa_cylinder", 8}, {"bv", 10},
        {"qaoa_random", 9}};
    for (std::size_t k = 0; k < small.size(); ++k)
        w.smallSlice.push_back(
            {qasmOf(coldCircuit(small[k].first, small[k].second, rng(),
                                rng)),
             kColdDevices[k % kColdDevices.size()], kStrategies[k]});
    return w;
}

// ------------------------------------------------------------ warm

const std::vector<std::string> kWarmDevices = {"heavyhex65", "heavyhex127",
                                               "ring65", "grid64"};
constexpr int kCatalogSize = 256;
constexpr double kZipfExponent = 1.1;

Workload
warmZipf(std::uint64_t seed)
{
    Workload w;
    w.name = "warm_zipf";
    w.useStore = true;
    w.options.cacheCapacity = 16;
    w.expectWarm = true;
    w.passRequests = 5000;

    // The catalog: every registry family at sizes 10..60, each under
    // up to five (device, strategy) pairs.
    const auto &families = qompress::benchmarkFamilies();
    std::vector<std::shared_ptr<const std::string>> texts;
    std::vector<int> widths;
    for (const auto &f : families) {
        for (int size = 10; size <= 60; size += 10) {
            const Circuit c = f.make(std::max(size, f.minQubits));
            texts.push_back(qasmOf(c));
            widths.push_back(c.numQubits());
        }
    }
    const int circuits = static_cast<int>(texts.size());
    std::vector<Input> catalog;
    for (int k = 0; k < kCatalogSize; ++k) {
        const int fs = k % circuits;
        const int pair = (fs * 7 + (k / circuits) * 3) % 16;
        catalog.push_back({texts[fs], kWarmDevices[pair / 4],
                           kStrategies[pair % 4]});
    }

    // Zipf popularity over a fixed rank order.
    std::vector<double> pmf(kCatalogSize);
    double total = 0.0;
    for (int r = 0; r < kCatalogSize; ++r) {
        pmf[r] = std::pow(static_cast<double>(r + 1), -kZipfExponent);
        total += pmf[r];
    }
    const auto rank_to_item = fixedOrder(kCatalogSize, 0x21bfULL);

    // A pass holds each entry round(passRequests * p) times (largest
    // remainders fill the rest) in an order drawn from the seed. Its mix
    // is then the same for every seed; a sampled mix would move the
    // pass's mean cost with the seed through the rare, large entries.
    std::vector<int> count(kCatalogSize);
    std::vector<std::pair<double, int>> remainder;
    std::uint64_t placed = 0;
    for (int r = 0; r < kCatalogSize; ++r) {
        const double want =
            pmf[r] / total * static_cast<double>(w.passRequests);
        count[r] = static_cast<int>(want);
        placed += count[r];
        remainder.push_back({want - count[r], r});
    }
    std::sort(remainder.rbegin(), remainder.rend());
    for (std::size_t k = 0; placed + k < w.passRequests; ++k)
        ++count[remainder[k].second];
    std::vector<int> stream;
    for (int r = 0; r < kCatalogSize; ++r)
        stream.insert(stream.end(), count[r], rank_to_item[r]);
    // The run stores the whole catalog once. Each set-up reopens that
    // store, requests the catalog in order, then 2048 requests from the
    // same mix in another order, so the LRUs settle before timing.
    std::vector<int> settle = stream;
    Rng(mixSeed(seed, 1ULL << 49)).shuffle(stream);
    Rng(mixSeed(seed, 1ULL << 47)).shuffle(settle);
    settle.resize(2048);
    w.request = [stream, catalog](std::uint64_t i) {
        return catalog[stream[i % stream.size()]];
    };
    w.storeContent = catalog;
    w.warmupCount = catalog.size() + settle.size();
    w.warmup = [settle, catalog](std::uint64_t k) {
        return k < catalog.size() ? catalog[k]
                                  : catalog[settle[k - catalog.size()]];
    };
    w.qualitySuite = catalog;

    std::vector<int> small;
    for (int k = 0; k < kCatalogSize; ++k)
        if (widths[k % circuits] <= 10)
            small.push_back(k);
    Rng rng(mixSeed(seed, 1ULL << 48));
    rng.shuffle(small);
    for (std::size_t k = 0; k < small.size() && k < 4; ++k)
        w.smallSlice.push_back(catalog[small[k]]);
    return w;
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t i)
{
    // splitmix64 finalizer over the pair.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cold_compile", "warm_zipf"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    if (name == "cold_compile")
        w = coldCompile(seed);
    else if (name == "warm_zipf")
        w = warmZipf(seed);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    // One service lane and one compile lane: a run uses one core.
    w.options.threads = 1;
    return w;
}

} // namespace perfbench
