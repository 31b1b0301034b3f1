/**
 * @file
 * Device-subsystem tests: the qcal calibration codec (round-trip and
 * the malformed-input suite -- always FatalError, never a panic), the
 * topology zoo generators (heavy-hex family, falcon27, named lookup,
 * hardened fromText/fromFile), the DeviceRegistry, calibration-driven
 * pricing, and the service-level invalidation contract.
 *
 * The load-bearing suites are the two differentials:
 *  - uncalibrated == today: a null calibration and a NEUTRAL uniform
 *    calibration (library-default T1s, zero readout, no edges) both
 *    compile bit-identically to the pre-device pipeline, for every
 *    standard strategy on ring/grid/heavyHex65;
 *  - a calibration update invalidates exactly the artifacts priced
 *    against it: the stale device misses, unrelated warm entries keep
 *    hitting, and the request-partition invariant holds throughout.
 *
 * Runs under the TSan CI job (labels: threads;service).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "arch/device.hh"
#include "arch/gate_library.hh"
#include "arch/topology.hh"
#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/qaoa.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "graph/algorithms.hh"
#include "service/compiler_service.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

using bench::artifactDiff;

/** A small syntactically complete qcal record for a 3-unit device. */
std::string
validQcal()
{
    return "qcal 1\n"
           "device line3   # which backend\n"
           "version 4\n"
           "units 3\n"
           "unit 0 t1q 163500 t1qq 54500 ro 0.01\n"
           "unit 1 t1q 150000 t1qq 50000 ro 0.02\n"
           "unit 2 t1q 170000 t1qq 60000 ro 0.0\n"
           "edge 0 1 fid 0.98 dur 1.1\n";
}

// ------------------------------------------------------------------
// qcal codec
// ------------------------------------------------------------------

TEST(Qcal, ParsesCompleteRecord)
{
    const DeviceCalibration cal =
        DeviceCalibration::parse(validQcal(), "test");
    EXPECT_EQ(cal.device, "line3");
    EXPECT_EQ(cal.version, 4);
    EXPECT_EQ(cal.numUnits(), 3);
    EXPECT_DOUBLE_EQ(cal.t1QubitNs[1], 150000.0);
    EXPECT_DOUBLE_EQ(cal.t1QuquartNs[2], 60000.0);
    EXPECT_DOUBLE_EQ(cal.readoutError[0], 0.01);
    ASSERT_NE(cal.edge(0, 1), nullptr);
    EXPECT_DOUBLE_EQ(cal.edge(0, 1)->fidelityScale, 0.98);
    EXPECT_DOUBLE_EQ(cal.edge(0, 1)->durationScale, 1.1);
    // Undirected: the reversed lookup sees the same record.
    EXPECT_EQ(cal.edge(1, 0), cal.edge(0, 1));
    EXPECT_EQ(cal.edge(1, 2), nullptr);
}

TEST(Qcal, RoundTripsExactly)
{
    const DeviceCalibration cal =
        DeviceCalibration::parse(validQcal(), "test");
    const DeviceCalibration again =
        DeviceCalibration::parse(cal.toText(), "round-trip");
    EXPECT_TRUE(cal == again);
    EXPECT_EQ(cal.fingerprint(), again.fingerprint());
}

TEST(Qcal, FingerprintSeesEveryPricedField)
{
    const DeviceCalibration base =
        DeviceCalibration::parse(validQcal(), "test");
    auto fp = [](DeviceCalibration c) { return c.fingerprint(); };

    DeviceCalibration t1 = base;
    t1.t1QubitNs[0] *= 2.0;
    EXPECT_NE(fp(t1), base.fingerprint());

    DeviceCalibration ro = base;
    ro.readoutError[2] = 0.5;
    EXPECT_NE(fp(ro), base.fingerprint());

    DeviceCalibration ver = base;
    ver.version = 5;
    EXPECT_NE(fp(ver), base.fingerprint());

    DeviceCalibration edge = base;
    edge.setEdge(1, 2, 0.9, 1.0);
    EXPECT_NE(fp(edge), base.fingerprint());
}

TEST(Qcal, MalformedInputIsAlwaysFatalError)
{
    auto reject = [](const std::string &text) {
        EXPECT_THROW(DeviceCalibration::parse(text, "test"), FatalError)
            << "accepted: " << text;
    };
    // Header problems.
    reject("");
    reject("qcal 2\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n");
    reject("device d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n");
    // Missing / duplicate directives.
    reject("qcal 1\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n"); // no device
    reject("qcal 1\ndevice d\ndevice e\nunits 1\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunit 0 t1q 1 t1qq 1 ro 0\n"); // no units
    // Truncation: unit 1 never calibrated.
    reject("qcal 1\ndevice d\nunits 2\nunit 0 t1q 1 t1qq 1 ro 0\n");
    // Unknown unit ids and duplicates.
    reject("qcal 1\ndevice d\nunits 1\nunit 1 t1q 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
    // NaN / inf / negative / zero T1, readout out of range.
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q nan t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q inf t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q -5 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 0 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq nan ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 1\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro -0.1\n");
    // Edge problems: unknown units, self-loop, duplicate, bad scales.
    const std::string two = "qcal 1\ndevice d\nunits 2\n"
                            "unit 0 t1q 1 t1qq 1 ro 0\n"
                            "unit 1 t1q 1 t1qq 1 ro 0\n";
    reject(two + "edge 0 2 fid 0.9 dur 1\n");
    reject(two + "edge 0 0 fid 0.9 dur 1\n");
    reject(two + "edge 0 1 fid 0.9 dur 1\nedge 1 0 fid 0.9 dur 1\n");
    reject(two + "edge 0 1 fid 0 dur 1\n");
    reject(two + "edge 0 1 fid 1.5 dur 1\n");
    reject(two + "edge 0 1 fid 0.9 dur 0\n");
    reject(two + "edge 0 1 fid 0.9 dur 1001\n");
    reject(two + "edge 0 1 fid nan dur 1\n");
    // Structure: wrong token counts, unknown directives, bad ints.
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1x 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nbogus 3\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits -1\n");
    reject("qcal 1\ndevice d\nunits 99999999\n");
    reject("qcal 1\ndevice d\nversion 0\nunits 1\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
}

TEST(Qcal, UniformBuildsNeutralRecord)
{
    const DeviceCalibration cal = DeviceCalibration::uniform(
        "dev", 4, GateLibrary::kT1QubitNs, GateLibrary::kT1QuquartNs);
    EXPECT_EQ(cal.numUnits(), 4);
    EXPECT_TRUE(cal.edges.empty());
    for (int u = 0; u < 4; ++u) {
        EXPECT_DOUBLE_EQ(cal.t1QubitNs[u], GateLibrary::kT1QubitNs);
        EXPECT_DOUBLE_EQ(cal.readoutError[u], 0.0);
    }
}

TEST(Qcal, FromFileMissingIsFatalError)
{
    EXPECT_THROW(DeviceCalibration::fromFile("/nonexistent/x.qcal"),
                 FatalError);
}

// ------------------------------------------------------------------
// Topology zoo generators
// ------------------------------------------------------------------

TEST(TopologyZoo, HeavyHexFamilyReproducesHeavyHex65)
{
    // Reference: the IBM 65-qubit coupling map (ibmq_manhattan/
    // brooklyn), written out by hand. Qubit rows (inclusive ranges),
    // then bridges {bridge, upper-row qubit, lower-row qubit}.
    Graph ref(65);
    const std::pair<int, int> rows[] = {
        {0, 9}, {13, 23}, {27, 37}, {41, 51}, {55, 64},
    };
    for (const auto &[lo, hi] : rows) {
        for (int q = lo; q < hi; ++q)
            ref.addEdge(q, q + 1);
    }
    const int bridges[][3] = {
        {10, 0, 13},  {11, 4, 17},  {12, 8, 21},
        {24, 15, 29}, {25, 19, 33}, {26, 23, 37},
        {38, 27, 41}, {39, 31, 45}, {40, 35, 49},
        {52, 43, 56}, {53, 47, 60}, {54, 51, 64},
    };
    for (const auto &[b, up, down] : bridges) {
        ref.addEdge(b, up);
        ref.addEdge(b, down);
    }

    const Topology gen = Topology::heavyHex(5, 11);
    EXPECT_EQ(gen.numUnits(), 65);
    EXPECT_EQ(gen.name(), "heavyhex_65");
    EXPECT_EQ(Topology::heavyHex65().name(), gen.name());
    // Same graph, not merely isomorphic: identical edges in identical
    // insertion order (adjacency order feeds Dijkstra tie-breaks, so
    // this is what bit-identity rests on).
    ASSERT_EQ(gen.graph().edges().size(), ref.edges().size());
    for (std::size_t i = 0; i < ref.edges().size(); ++i) {
        EXPECT_EQ(gen.graph().edges()[i].u, ref.edges()[i].u);
        EXPECT_EQ(gen.graph().edges()[i].v, ref.edges()[i].v);
    }
}

TEST(TopologyZoo, HeavyHexFamilySizes)
{
    EXPECT_EQ(Topology::heavyHex(3, 7).numUnits(), 23);
    EXPECT_EQ(Topology::heavyHex(7, 15).numUnits(), 127); // IBM Eagle
    // Every family member is connected.
    for (const auto &t :
         {Topology::heavyHex(3, 7), Topology::heavyHex(7, 15)}) {
        for (int c : connectedComponents(t.graph()))
            EXPECT_EQ(c, 0);
    }
}

TEST(TopologyZoo, HeavyHexRejectsInvalidParameters)
{
    EXPECT_THROW(Topology::heavyHex(2, 11), FatalError); // even rows
    EXPECT_THROW(Topology::heavyHex(1, 11), FatalError); // too few
    EXPECT_THROW(Topology::heavyHex(5, 10), FatalError); // not 3 mod 4
    EXPECT_THROW(Topology::heavyHex(5, 3), FatalError);  // too short
    EXPECT_THROW(Topology::heavyHex(-3, 11), FatalError);
}

TEST(TopologyZoo, Falcon27Shape)
{
    const Topology t = Topology::falcon27();
    EXPECT_EQ(t.numUnits(), 27);
    EXPECT_EQ(t.numEdges(), 28);
    EXPECT_TRUE(t.adjacent(0, 1));
    EXPECT_TRUE(t.adjacent(25, 26));
    EXPECT_TRUE(t.adjacent(12, 15));
    EXPECT_FALSE(t.adjacent(0, 26));
    for (int c : connectedComponents(t.graph()))
        EXPECT_EQ(c, 0);
}

TEST(TopologyZoo, SizedKindsAndClamps)
{
    EXPECT_EQ(Topology::sized("grid", 12).numUnits(), 12);
    EXPECT_EQ(Topology::sized("grid", 10).name(),
              Topology::grid(10).name());
    EXPECT_EQ(Topology::sized("ring", 16).numUnits(), 16);
    EXPECT_EQ(Topology::sized("line", 5).numEdges(), 4);
    // heavyhex is the 65-unit lattice whatever the size...
    for (int units : {1, 65, 500}) {
        const Topology t = Topology::sized("heavyhex", units);
        EXPECT_EQ(t.numUnits(), 65);
        EXPECT_EQ(t.graph().edges().size(),
                  Topology::heavyHex65().graph().edges().size());
    }
    // ...and ring/line clamp up to their smallest valid shape.
    EXPECT_EQ(Topology::sized("ring", 1).numUnits(), 3);
    EXPECT_EQ(Topology::sized("ring", 2).numUnits(), 3);
    EXPECT_EQ(Topology::sized("line", 1).numUnits(), 2);
    EXPECT_EQ(Topology::sized("line", 1).numEdges(), 1);
    EXPECT_THROW(Topology::sized("grid", 0), FatalError);
}

TEST(TopologyZoo, SizedUnknownKindListsValidKinds)
{
    for (const char *kind : {"bogus", "grid64", "ring:16", ""}) {
        try {
            Topology::sized(kind, 8);
            FAIL() << "expected FatalError for '" << kind << "'";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("'") + kind + "'"),
                      std::string::npos);
            EXPECT_NE(what.find("grid|heavyhex|ring|line"),
                      std::string::npos);
        }
    }
}

// ------------------------------------------------------------------
// Hardened fromText / fromFile
// ------------------------------------------------------------------

TEST(TopologyText, ParsesEdgeListWithComments)
{
    const Topology t = Topology::fromText("# a triangle\n"
                                          "0 1\n"
                                          "1 2  # last edge\n"
                                          "2 0\n",
                                          "inline");
    EXPECT_EQ(t.numUnits(), 3);
    EXPECT_EQ(t.numEdges(), 3);
    EXPECT_EQ(t.name(), "inline");
}

TEST(TopologyText, RejectsMalformedInput)
{
    auto reject = [](const std::string &text) {
        EXPECT_THROW(Topology::fromText(text, "t"), FatalError)
            << "accepted: " << text;
    };
    reject("");             // no edges at all
    reject("# only\n\n");   // comments only
    reject("0\n");          // one token
    reject("0 1 2\n");      // trailing token
    reject("0 -1\n");       // not a digit string
    reject("0 1.5\n");      // not an integer
    reject("0 0\n");        // self-loop
    reject("0 1\n1 0\n");   // duplicate (undirected)
    reject("0 9999999\n");  // over the unit cap
    reject("0 abc\n");
}

TEST(TopologyText, ErrorsCarryLineNumbers)
{
    try {
        Topology::fromText("0 1\n1 1\n", "t");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(TopologyText, FromFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "qompress_topo.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("0 1\n1 2\n2 3\n3 0\n", f);
        std::fclose(f);
    }
    const Topology t = Topology::fromFile(path);
    EXPECT_EQ(t.numUnits(), 4);
    EXPECT_EQ(t.numEdges(), 4);
    EXPECT_EQ(t.name(), "qompress_topo.txt"); // basename
    std::remove(path.c_str());
    EXPECT_THROW(Topology::fromFile("/nonexistent/topo.txt"),
                 FatalError);
}

// ------------------------------------------------------------------
// DeviceRegistry
// ------------------------------------------------------------------

TEST(DeviceRegistry, DefaultZoo)
{
    DeviceRegistry reg;
    const auto names = reg.names();
    for (const char *want : {"falcon27", "heavyhex23", "heavyhex65",
                             "heavyhex127", "ring65", "grid64"}) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), want) !=
                    names.end())
            << "zoo is missing " << want;
    }
    EXPECT_GE(names.size(), 5u);
    const Device hh = reg.get("heavyhex65");
    EXPECT_EQ(hh.topology.numUnits(), 65);
    EXPECT_EQ(hh.calibration, nullptr);
    EXPECT_EQ(hh.calVersion, 0u);
    for (const DeviceInfo &d : reg.info()) {
        EXPECT_FALSE(d.calibrated);
        EXPECT_GT(d.units, 0);
    }
}

TEST(DeviceRegistry, UnknownDeviceErrorListsNames)
{
    DeviceRegistry reg;
    try {
        reg.get("bogus");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        EXPECT_NE(what.find("falcon27"), std::string::npos);
        EXPECT_NE(what.find("heavyhex65"), std::string::npos);
    }
}

TEST(DeviceRegistry, AddValidatesNames)
{
    DeviceRegistry reg;
    reg.add("custom", Topology::ring(5));
    EXPECT_TRUE(reg.has("custom"));
    EXPECT_THROW(reg.add("custom", Topology::ring(5)), FatalError);
    EXPECT_THROW(reg.add("", Topology::ring(5)), FatalError);
}

TEST(DeviceRegistry, SetCalibrationValidatesAndVersions)
{
    DeviceRegistry reg;
    reg.add("line3", Topology::line(3));
    DeviceCalibration cal =
        DeviceCalibration::parse(validQcal(), "test");

    EXPECT_THROW(reg.setCalibration("bogus", cal), FatalError);

    // Unit-count mismatch against the topology.
    DeviceCalibration wrongSize = DeviceCalibration::uniform(
        "line3", 4, 1000.0, 500.0);
    EXPECT_THROW(reg.setCalibration("line3", wrongSize), FatalError);

    // Record naming a different device.
    DeviceCalibration wrongName = cal;
    wrongName.device = "other";
    EXPECT_THROW(reg.setCalibration("line3", wrongName), FatalError);

    // An edge that is not a coupling of the topology.
    DeviceCalibration badEdge = cal;
    badEdge.setEdge(0, 2, 0.9, 1.0); // line3 has no (0, 2)
    EXPECT_THROW(reg.setCalibration("line3", badEdge), FatalError);

    // A valid install bumps the version each time.
    EXPECT_EQ(reg.setCalibration("line3", cal), 1u);
    EXPECT_EQ(reg.setCalibration("line3", cal), 2u);
    const Device dev = reg.get("line3");
    ASSERT_NE(dev.calibration, nullptr);
    EXPECT_EQ(dev.calVersion, 2u);
    EXPECT_TRUE(*dev.calibration == cal);
}

/** A calibration for @p dev with per-unit T1/readout values and edge
 *  scales on about half of its couplings, all drawn from @p rng. */
DeviceCalibration
randomCalibration(const Device &dev, Rng &rng)
{
    const int units = dev.topology.numUnits();
    DeviceCalibration cal =
        DeviceCalibration::uniform(dev.name, units, 1.0, 1.0);
    for (int u = 0; u < units; ++u) {
        const auto k = static_cast<std::size_t>(u);
        cal.t1QubitNs[k] = rng.nextDouble(5e4, 2e5);
        cal.t1QuquartNs[k] = rng.nextDouble(1e4, 8e4);
        cal.readoutError[k] = rng.nextDouble(0.0, 0.05);
    }
    for (const auto &e : dev.topology.graph().edges()) {
        if (rng.nextBool())
            cal.setEdge(e.u, e.v, rng.nextDouble(0.9, 1.0),
                        rng.nextDouble(0.5, 2.0));
    }
    return cal;
}

TEST(DeviceRegistry, SnapshotIsUnchangedByLaterCalibration)
{
    DeviceRegistry reg;
    const std::shared_ptr<const Device> before = reg.snapshot("falcon27");
    const Topology topo = before->topology;
    const std::uint64_t topo_fp = before->topologyFp;

    const auto cal = DeviceCalibration::uniform("falcon27", 27, 120000.0,
                                                40000.0, 0.01);
    EXPECT_EQ(reg.setCalibration("falcon27", cal), 1u);

    // The old snapshot still describes the uncalibrated device...
    EXPECT_EQ(before->calibration, nullptr);
    EXPECT_EQ(before->calVersion, 0u);
    EXPECT_EQ(before->calibrationFp, 0u);
    EXPECT_EQ(before->topologyFp, topo_fp);
    EXPECT_EQ(topologyFingerprint(before->topology),
              topologyFingerprint(topo));

    // ...while new snapshots (and get() copies) see the install.
    const std::shared_ptr<const Device> after = reg.snapshot("falcon27");
    EXPECT_NE(after, before);
    ASSERT_NE(after->calibration, nullptr);
    EXPECT_TRUE(*after->calibration == cal);
    EXPECT_EQ(after->calVersion, 1u);
    EXPECT_EQ(after->topologyFp, topo_fp);
    EXPECT_EQ(after->calibrationFp, cal.fingerprint());
    const Device copy = reg.get("falcon27");
    EXPECT_EQ(copy.calibration, after->calibration);
    EXPECT_EQ(copy.calibrationFp, after->calibrationFp);

    // A snapshot is shared, not rebuilt, until the next install.
    EXPECT_EQ(reg.snapshot("falcon27"), after);
}

TEST(DeviceRegistry, CachedFingerprintsMatchFreshOnes)
{
    DeviceRegistry reg;
    const std::string path = ::testing::TempDir() + "qompress_dev.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# a 5-unit ring with a chord\n0 1\n1 2\n2 3\n3 4\n"
                   "4 0\n0 2\n",
                   f);
        std::fclose(f);
    }
    reg.addFromFile("custom5", path);
    std::remove(path.c_str());

    Rng rng(0xfee1ULL);
    for (const std::string &name : reg.names()) {
        const auto dev = reg.snapshot(name);
        EXPECT_EQ(dev->topologyFp, topologyFingerprint(dev->topology))
            << name;
        EXPECT_EQ(dev->calibrationFp, 0u) << name;
        for (int round = 0; round < 3; ++round) {
            reg.setCalibration(name, randomCalibration(*dev, rng));
            const auto cal = reg.snapshot(name);
            ASSERT_NE(cal->calibration, nullptr) << name;
            EXPECT_EQ(cal->calibrationFp, cal->calibration->fingerprint())
                << name << " round " << round;
            EXPECT_EQ(cal->topologyFp, dev->topologyFp) << name;
        }
    }
}

// ------------------------------------------------------------------
// Calibration-driven pricing
// ------------------------------------------------------------------

/** The acceptance differential: for every standard strategy on
 *  ring/grid/heavyHex65, a null calibration AND a neutral uniform
 *  calibration both produce results bit-identical to a config without
 *  the field (which is what pre-device builds compiled). */
TEST(CalibrationPricing, UncalibratedIsBitIdenticalToToday)
{
    const Circuit circuit = bernsteinVazirani(8);
    const GateLibrary lib;
    std::vector<Topology> topos;
    topos.push_back(Topology::ring(8));
    topos.push_back(Topology::grid(8));
    topos.push_back(Topology::heavyHex65());

    for (const Topology &topo : topos) {
        for (const std::string &name : strategyNames()) {
            const auto strategy = makeStrategy(name);
            CompilerConfig plain;
            const CompileResult base =
                strategy->compile(circuit, topo, lib, plain);

            // Null calibration: the field exists but is unset.
            CompilerConfig nullCal;
            EXPECT_EQ(artifactDiff(base, strategy->compile(circuit, topo,
                                                           lib, nullCal)),
                      "")
                << name << " on " << topo.name() << " (null)";

            // Neutral uniform calibration: every value equals the
            // library constant, readout zero, no edge scales.
            CompilerConfig neutral;
            neutral.calibration =
                std::make_shared<const DeviceCalibration>(
                    DeviceCalibration::uniform(
                        topo.name(), topo.numUnits(),
                        GateLibrary::kT1QubitNs,
                        GateLibrary::kT1QuquartNs));
            EXPECT_EQ(artifactDiff(base, strategy->compile(circuit, topo,
                                                           lib, neutral)),
                      "")
                << name << " on " << topo.name() << " (neutral)";
        }
    }
}

TEST(CalibrationPricing, PerUnitT1ChangesPricing)
{
    const Circuit circuit = bernsteinVazirani(6);
    const GateLibrary lib;
    const Topology topo = Topology::grid(6);

    // Crush every unit's T1 100x: coherence must get strictly worse
    // under every strategy, FQ's qudit-level router included.
    CompilerConfig plain;
    CompilerConfig bad;
    bad.calibration = std::make_shared<const DeviceCalibration>(
        DeviceCalibration::uniform(topo.name(), topo.numUnits(),
                                   GateLibrary::kT1QubitNs / 100.0,
                                   GateLibrary::kT1QuquartNs / 100.0));
    for (const std::string &name : strategyNames()) {
        const auto strategy = makeStrategy(name);
        const CompileResult base =
            strategy->compile(circuit, topo, lib, plain);
        const CompileResult worse =
            strategy->compile(circuit, topo, lib, bad);
        EXPECT_LT(worse.metrics.coherenceEps, base.metrics.coherenceEps)
            << name;
        EXPECT_LT(worse.metrics.totalEps, base.metrics.totalEps) << name;
    }
}

TEST(CalibrationPricing, ReadoutErrorFoldsIntoTotalEps)
{
    const Circuit circuit = bernsteinVazirani(4);
    const GateLibrary lib;
    const Topology topo = Topology::grid(4);

    CompilerConfig plain;
    CompilerConfig ro;
    ro.calibration = std::make_shared<const DeviceCalibration>(
        DeviceCalibration::uniform(topo.name(), topo.numUnits(),
                                   GateLibrary::kT1QubitNs,
                                   GateLibrary::kT1QuquartNs, 0.05));
    for (const std::string &name : strategyNames()) {
        const auto strategy = makeStrategy(name);
        const CompileResult res =
            strategy->compile(circuit, topo, lib, ro);
        // 4 measured qubits at 5% readout error each.
        EXPECT_NEAR(res.metrics.readoutEps, std::pow(0.95, 4), 1e-12)
            << name;
        EXPECT_DOUBLE_EQ(res.metrics.totalEps,
                         res.metrics.gateEps * res.metrics.coherenceEps *
                             res.metrics.readoutEps)
            << name;

        const CompileResult base =
            strategy->compile(circuit, topo, lib, plain);
        EXPECT_DOUBLE_EQ(base.metrics.readoutEps, 1.0) << name;
    }
}

TEST(CalibrationPricing, EdgeScalesReachScheduledGates)
{
    // Two qubits on a 2-unit line: every cross-unit gate runs on the
    // single coupling, so a fidelity scale must show up in gateEps.
    Circuit c(2, "bell");
    c.h(0);
    c.cx(0, 1);
    const GateLibrary lib;
    const Topology topo = Topology::line(2);
    const auto strategy = makeStrategy("qubit_only");

    CompilerConfig plain;
    const CompileResult base =
        strategy->compile(c, topo, lib, plain);

    DeviceCalibration cal = DeviceCalibration::uniform(
        topo.name(), 2, GateLibrary::kT1QubitNs,
        GateLibrary::kT1QuquartNs);
    cal.setEdge(0, 1, 0.5, 1.0);
    CompilerConfig scaled;
    scaled.calibration =
        std::make_shared<const DeviceCalibration>(std::move(cal));
    const CompileResult res = strategy->compile(c, topo, lib, scaled);
    EXPECT_LT(res.metrics.gateEps, base.metrics.gateEps);
    // The scale applies per cross-unit gate; with exactly one CX the
    // ratio is exactly the fidelity scale.
    EXPECT_NEAR(res.metrics.gateEps / base.metrics.gateEps, 0.5, 1e-12);
}

TEST(CalibrationPricing, MismatchedUnitCountIsFatalError)
{
    const Circuit circuit = bernsteinVazirani(4);
    const Topology topo = Topology::grid(4);
    CompilerConfig cfg;
    cfg.calibration = std::make_shared<const DeviceCalibration>(
        DeviceCalibration::uniform("x", topo.numUnits() + 3, 1000.0,
                                   500.0));
    EXPECT_THROW(
        makeStrategy("eqm")->compile(circuit, topo, GateLibrary{}, cfg),
        FatalError);
}

// ------------------------------------------------------------------
// Service integration: by-name requests and cache invalidation
// ------------------------------------------------------------------

TEST(ServiceDevices, ByNameMatchesExplicitTopology)
{
    CompilerService svc;
    const Circuit circuit = bernsteinVazirani(8);

    const CompileArtifact byName = svc.compileSync(
        CompileRequest::forDevice(circuit, "heavyhex65", "eqm"));
    const CompileArtifact explicitTopo = svc.compileSync(
        CompileRequest::forCircuit(circuit, Topology::heavyHex65(),
                                   "eqm"));
    EXPECT_EQ(artifactDiff(*byName, *explicitTopo), "");
    // Same resolved content -> same artifact key: the second request
    // must have been a memo hit on the first's entry.
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.requests, 2u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
}

TEST(ServiceDevices, UnknownDeviceIsFatalError)
{
    CompilerService svc;
    EXPECT_THROW(svc.compileSync(CompileRequest::forDevice(
                     bernsteinVazirani(4), "bogus", "eqm")),
                 FatalError);
}

/** The invalidation acceptance: installing a calibration re-keys
 *  exactly the calibrated device. Stale requests miss, unrelated warm
 *  entries keep hitting, and the partition invariant
 *  requests == hits + templateHits + diskHits + misses + coalesced
 *  holds at every step. */
TEST(ServiceDevices, CalibrationUpdateInvalidatesExactlyItsDevice)
{
    CompilerService svc;
    const Circuit circuit = bernsteinVazirani(8);
    auto partitionHolds = [&svc] {
        const ServiceStats s = svc.stats();
        return s.requests == s.hits + s.templateHits + s.diskHits +
                                 s.misses + s.coalesced;
    };

    // Warm both devices.
    const CompileArtifact falconCold = svc.compileSync(
        CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    svc.compileSync(CompileRequest::forDevice(circuit, "ring65", "eqm"));
    ServiceStats st = svc.stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_TRUE(partitionHolds());

    // Warm repeat: both hit.
    svc.compileSync(CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    svc.compileSync(CompileRequest::forDevice(circuit, "ring65", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.misses, 2u);

    // Install a real calibration on falcon27 only.
    svc.devices().setCalibration(
        "falcon27", DeviceCalibration::uniform("falcon27", 27,
                                               100000.0, 30000.0, 0.01));

    // falcon27 requests now miss (new key) and reprice...
    const CompileArtifact falconFresh = svc.compileSync(
        CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.misses, 3u);
    EXPECT_NE(falconFresh->metrics.totalEps,
              falconCold->metrics.totalEps);
    EXPECT_TRUE(partitionHolds());

    // ...then hit on their own fresh entry...
    svc.compileSync(CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 3u);

    // ...while the unrelated device's warm entry survives untouched.
    svc.compileSync(CompileRequest::forDevice(circuit, "ring65", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.hits, 4u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_TRUE(partitionHolds());

    // A second install bumps the key again: stale again, exactly once.
    svc.devices().setCalibration(
        "falcon27", DeviceCalibration::uniform("falcon27", 27,
                                               90000.0, 25000.0, 0.02));
    svc.compileSync(CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.misses, 4u);
    EXPECT_TRUE(partitionHolds());
}

TEST(ServiceDevices, TemplateTierRespectsCalibrationKeys)
{
    // Parameterized instances of one structure: the second compile is
    // served by rebind. After a calibration lands, the old template is
    // unreachable (new cfg fingerprint) and a fresh full compile runs.
    CompilerService svc;
    QaoaOptions o1;
    o1.gamma = 0.3;
    QaoaOptions o2;
    o2.gamma = 0.7;
    QaoaOptions o3;
    o3.gamma = 0.9;
    const Topology ringTopo = Topology::ring(8);
    const Graph &problem = ringTopo.graph();

    auto reqFor = [&](const QaoaOptions &o) {
        return CompileRequest::forDevice(
            qaoaFromGraph(problem, o), "ring65", "eqm");
    };

    svc.compileSync(reqFor(o1));
    svc.compileSync(reqFor(o2));
    ServiceStats st = svc.stats();
    EXPECT_EQ(st.templateHits, 1u);
    EXPECT_EQ(st.misses, 1u);

    svc.devices().setCalibration(
        "ring65", DeviceCalibration::uniform("ring65", 65, 120000.0,
                                             40000.0));
    svc.compileSync(reqFor(o3));
    st = svc.stats();
    // The calibrated request could not use the stale template.
    EXPECT_EQ(st.templateHits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.requests,
              st.hits + st.templateHits + st.diskHits + st.misses +
                  st.coalesced);
}

} // namespace
} // namespace qompress
