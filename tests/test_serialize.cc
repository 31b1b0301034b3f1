/**
 * @file
 * The test wall behind the artifact serialization format and the
 * ArtifactStore's crash-recovery contract.
 *
 * Three walls:
 *  - Round-trip: decode(encode(r)) is BIT-identical to r -- every
 *    PhysGate field, every raw double bit (-0.0, denormals, infinities
 *    and NaN payloads included), metrics, compressions, both layouts --
 *    for real compiler output (every standard strategy x ring/grid/
 *    heavyHex65 x fixed/parameterized circuits) and for 500 seeded
 *    random structural shapes no compiler would ever emit.
 *  - Corruption: every truncation boundary, every single-bit flip,
 *    wrong magic/version, and hostile declared lengths (CRC patched so
 *    the parser-level guard is what's exercised) must surface as a
 *    structured FatalError -- never PanicError, a crash, or an
 *    allocation the input's size does not justify.
 *  - Crash recovery: an ArtifactStore log severed mid-append (at every
 *    byte of the torn frame) reopens to exactly the intact prefix, and
 *    stays appendable.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "ir/serialize.hh"
#include "service/artifact_store.hh"
#include "service/compiler_service.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

using bench::artifactDiff;

// ------------------------------------------------------------------
// Raw double bits (artifactDiff compares these; -0.0 and NaN checks)
// ------------------------------------------------------------------

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// ------------------------------------------------------------------
// Generators
// ------------------------------------------------------------------

/** Any of the 2^64 bit patterns: NaNs, infinities, denormals, -0.0. */
double
rawDouble(Rng &rng)
{
    const std::uint64_t b = rng();
    double v;
    std::memcpy(&v, &b, sizeof v);
    return v;
}

Layout
randomLayout(Rng &rng, int nq, int nu)
{
    Layout l(nq, nu);
    std::vector<SlotId> slots(static_cast<std::size_t>(nu) * 2);
    std::iota(slots.begin(), slots.end(), 0);
    rng.shuffle(slots);
    std::size_t next = 0;
    for (QubitId q = 0; q < nq; ++q)
        if (rng.nextBool(0.8)) // some qubits stay unmapped
            l.place(q, slots[next++]);
    return l;
}

/** A structurally random CompileResult no compiler would emit --
 *  the point is to fuzz the codec, not the pipeline. */
CompileResult
randomResult(Rng &rng)
{
    const int nq = rng.nextInt(0, 6);
    const int nu = rng.nextInt(nq > 0 ? (nq + 1) / 2 : 1, 8);
    std::string name;
    for (int i = rng.nextInt(0, 12); i > 0; --i)
        name.push_back(static_cast<char>(rng.nextInt(0, 255)));
    CompiledCircuit cc(randomLayout(rng, nq, nu), name);
    cc.setFinalLayout(randomLayout(rng, nq, nu));

    const int ngates = rng.nextInt(0, 32);
    for (int i = 0; i < ngates; ++i) {
        PhysGate g;
        g.cls = static_cast<PhysGateClass>(rng.nextUint(
            static_cast<std::uint64_t>(PhysGateClass::NumClasses)));
        g.logical = static_cast<GateType>(
            rng.nextInt(0, static_cast<int>(GateType::CCX)));
        g.logical2 = static_cast<GateType>(
            rng.nextInt(0, static_cast<int>(GateType::CCX)));
        for (int s = rng.nextInt(0, 4); s > 0; --s)
            g.slots.push_back(rng.nextInt(-1, 1 << 20));
        g.param = rawDouble(rng);
        g.param2 = rawDouble(rng);
        g.isRouting = rng.nextBool();
        g.sourceGate = rng.nextInt(-1, 1 << 20);
        g.sourceGate2 = rng.nextInt(-1, 1 << 20);
        g.start = rawDouble(rng);
        g.duration = rawDouble(rng);
        g.fidelity = rawDouble(rng);
        cc.add(std::move(g));
    }

    CompileResult res;
    res.compiled = std::move(cc);
    res.metrics.gateEps = rawDouble(rng);
    res.metrics.coherenceEps = rawDouble(rng);
    res.metrics.readoutEps = rawDouble(rng);
    res.metrics.totalEps = rawDouble(rng);
    res.metrics.durationNs = rawDouble(rng);
    res.metrics.numGates = rng.nextInt(-1, 1 << 20);
    res.metrics.numRoutingGates = rng.nextInt(-1, 1 << 20);
    res.metrics.numTwoUnitGates = rng.nextInt(-1, 1 << 20);
    res.metrics.numEncodedUnits = rng.nextInt(-1, 1 << 20);
    for (int i = rng.nextInt(0, 8); i > 0; --i)
        res.metrics.classHistogram.push_back(rng.nextInt(-5, 1 << 20));
    res.metrics.qubitTimeNs = rawDouble(rng);
    res.metrics.ququartTimeNs = rawDouble(rng);
    for (int i = rng.nextInt(0, 6); i > 0; --i)
        res.compressions.push_back(
            Compression{rng.nextInt(0, 64), rng.nextInt(0, 64)});
    return res;
}

/** A tiny handcrafted result with a known byte layout (name "t",
 *  2 qubits on 2 units, one gate) for offset-precise tampering. */
CompileResult
tinyResult()
{
    Layout init(2, 2);
    init.place(0, 0);
    init.place(1, 3);
    Layout fin(2, 2);
    fin.place(0, 3);
    fin.place(1, 0);
    CompiledCircuit cc(init, "t");
    cc.setFinalLayout(fin);
    PhysGate g;
    g.cls = PhysGateClass::CxBareBare;
    g.slots = {0, 3};
    g.logical = GateType::CX;
    g.param = -0.0;
    g.start = 1.5;
    g.duration = 251.0;
    g.fidelity = 0.995;
    cc.add(g);
    CompileResult res;
    res.compiled = std::move(cc);
    res.metrics.numGates = 1;
    res.compressions.push_back(Compression{0, 1});
    return res;
}

/** Recompute the header CRC over the (possibly tampered) payload so
 *  corruption tests exercise the parser's own guards, not just the
 *  checksum. */
void
patchCrc(std::vector<std::uint8_t> &rec)
{
    ASSERT_GE(rec.size(), kArtifactHeaderBytes);
    const std::uint32_t c =
        crc32(rec.data() + kArtifactHeaderBytes,
              rec.size() - kArtifactHeaderBytes);
    for (int i = 0; i < 4; ++i)
        rec[16 + i] = static_cast<std::uint8_t>(c >> (8 * i));
}

void
pokeU64(std::vector<std::uint8_t> &rec, std::size_t off, std::uint64_t v)
{
    ASSERT_LE(off + 8, rec.size());
    for (int i = 0; i < 8; ++i)
        rec[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Wrap a hand-built payload in a valid header (magic, version,
 *  length, CRC) so only the payload-level validation can object. */
std::vector<std::uint8_t>
wrapPayload(const ByteWriter &payload)
{
    ByteWriter rec;
    rec.u32(kArtifactMagic);
    rec.u32(kArtifactFormatVersion);
    rec.u64(payload.size());
    rec.u32(crc32(payload.data().data(), payload.size()));
    rec.bytes(payload.data().data(), payload.size());
    return rec.take();
}

std::string
tempStorePath(const char *tag)
{
    const std::string path =
        ::testing::TempDir() + "qompress_" + tag + "_store.log";
    std::remove(path.c_str());
    return path;
}

// ------------------------------------------------------------------
// Round-trip
// ------------------------------------------------------------------

/** The bytewise CRC-32 the slicing-by-8 kernel must reproduce. */
std::uint32_t
referenceCrc32(const std::uint8_t *p, std::size_t n, std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtAnyLengthAndAlignment)
{
    Rng rng(77);
    std::vector<std::uint8_t> buf(1100);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.nextUint(256));
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t off = rng.nextUint(8);
        const std::size_t len = trial < 40 ? static_cast<std::size_t>(trial)
                                           : rng.nextUint(1090);
        const std::uint32_t seed =
            trial % 3 ? 0u : static_cast<std::uint32_t>(rng());
        ASSERT_EQ(crc32(buf.data() + off, len, seed),
                  referenceCrc32(buf.data() + off, len, seed))
            << "offset " << off << " length " << len;
    }
    // Chaining through the seed equals one pass over the whole run.
    const std::size_t cut = 301;
    EXPECT_EQ(crc32(buf.data() + cut, 500, crc32(buf.data(), cut)),
              crc32(buf.data(), cut + 500));
}

TEST(SerializeRoundTrip, EveryStrategyTopologyAndCircuit)
{
    const GateLibrary lib;
    const CompilerConfig cfg;

    std::vector<Circuit> circuits;
    circuits.push_back(bernsteinVazirani(8));
    circuits.push_back(benchmarkFamily("qaoa_random").make(8));
    // A parameterized circuit whose angles stress the raw-bit
    // encoding: -0.0 and a denormal survive only an exact codec
    // (the test_ir -0.0 lesson).
    Circuit special(8, "special_angles");
    special.h(0);
    special.rz(-0.0, 0);
    special.rx(5e-324, 1); // smallest positive denormal
    special.ry(0.375, 2);
    special.cx(0, 1);
    special.cx(2, 3);
    circuits.push_back(special);

    std::vector<Topology> topos;
    topos.push_back(Topology::ring(8));
    topos.push_back(Topology::grid(8));
    topos.push_back(Topology::heavyHex65());

    for (const auto &strat : standardStrategies()) {
        for (const auto &topo : topos) {
            for (const auto &circuit : circuits) {
                const CompileResult direct =
                    strat->compile(circuit, topo, lib, cfg);
                const std::vector<std::uint8_t> rec =
                    encodeCompileResult(direct);
                const CompileResult back = decodeCompileResult(rec);
                EXPECT_EQ(artifactDiff(direct, back), "")
                    << strat->name() << " on " << topo.name() << " / "
                    << circuit.name();
            }
        }
    }
}

TEST(SerializeRoundTrip, SpecialDoubleBitPatterns)
{
    CompileResult res = tinyResult();
    auto &g = res.compiled.mutableGates()[0];
    g.param = -0.0;
    g.param2 = 5e-324; // denormal
    g.start = std::numeric_limits<double>::infinity();
    g.duration = -std::numeric_limits<double>::infinity();
    g.fidelity = std::numeric_limits<double>::quiet_NaN();
    res.metrics.qubitTimeNs = -0.0;
    res.metrics.ququartTimeNs =
        std::numeric_limits<double>::denorm_min();

    const CompileResult back =
        decodeCompileResult(encodeCompileResult(res));
    EXPECT_EQ(artifactDiff(res, back), "");
    // Spell out the sensitive ones so the check does not rest on the
    // comparator alone: 0.0 == -0.0 under operator==.
    EXPECT_EQ(bitsOf(back.compiled.gates()[0].param), bitsOf(-0.0));
    EXPECT_NE(bitsOf(back.compiled.gates()[0].param), bitsOf(0.0));
    EXPECT_TRUE(std::isnan(back.compiled.gates()[0].fidelity));
}

TEST(SerializeRoundTrip, Fuzz500StructuralShapes)
{
    Rng rng(0xC0FFEEu);
    for (int i = 0; i < 500; ++i) {
        const CompileResult res = randomResult(rng);
        const std::vector<std::uint8_t> rec = encodeCompileResult(res);
        const CompileResult back = decodeCompileResult(rec);
        ASSERT_EQ(artifactDiff(res, back), "") << "fuzz shape " << i;
    }
}

TEST(SerializeRoundTrip, ArtifactKeyRoundTrips)
{
    ByteWriter w;
    const ArtifactKey key{0x0123456789abcdefULL, 42, 0, ~0ULL, "eqm"};
    encodeArtifactKey(w, key);
    ByteReader r(w.data().data(), w.size());
    EXPECT_TRUE(decodeArtifactKey(r) == key);
    EXPECT_TRUE(r.atEnd());
}

// ------------------------------------------------------------------
// Corruption injection
// ------------------------------------------------------------------

TEST(SerializeCorruption, EveryTruncationBoundaryIsFatal)
{
    const std::vector<std::uint8_t> rec =
        encodeCompileResult(tinyResult());
    for (std::size_t n = 0; n < rec.size(); ++n) {
        try {
            decodeCompileResult(rec.data(), n);
            FAIL() << "prefix of " << n << " bytes decoded";
        } catch (const FatalError &) {
            // structured failure -- the only acceptable outcome
        } catch (...) {
            FAIL() << "prefix of " << n
                   << " bytes threw something other than FatalError";
        }
    }
}

TEST(SerializeCorruption, EverySingleBitFlipIsFatal)
{
    // Any one-bit flip lands in the magic, the version, the length,
    // the CRC, or the payload; each is guarded (the payload by the
    // checksum), so every flip must produce a FatalError.
    const std::vector<std::uint8_t> rec =
        encodeCompileResult(tinyResult());
    for (std::size_t byte = 0; byte < rec.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> bad = rec;
            bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
            try {
                decodeCompileResult(bad);
                FAIL() << "flip at byte " << byte << " bit " << bit
                       << " decoded";
            } catch (const FatalError &) {
            } catch (...) {
                FAIL() << "flip at byte " << byte << " bit " << bit
                       << " threw something other than FatalError";
            }
        }
    }
}

TEST(SerializeCorruption, WrongMagicAndVersionAreFatal)
{
    std::vector<std::uint8_t> rec = encodeCompileResult(tinyResult());
    std::vector<std::uint8_t> bad = rec;
    bad[0] ^= 0xff;
    EXPECT_THROW(decodeCompileResult(bad), FatalError);

    bad = rec;
    bad[4] = 99; // future format version
    EXPECT_THROW(decodeCompileResult(bad), FatalError);
}

TEST(SerializeCorruption, OversizedDeclaredLengthsDoNotAllocate)
{
    // tinyResult's known layout: header (20) | name u64 len at 20 |
    // "t" at 28 | initial layout (8 + 2*4 = 16) at 29 | final at 45 |
    // gate count u64 at 61. Tamper each length to something enormous,
    // re-patch the CRC so the checksum passes, and demand the
    // parser's own bounds guard reject it -- before any allocation a
    // hostile length could command.
    const std::vector<std::uint8_t> rec =
        encodeCompileResult(tinyResult());

    std::vector<std::uint8_t> bad = rec;
    pokeU64(bad, 20, 1ULL << 60); // name length
    patchCrc(bad);
    EXPECT_THROW(decodeCompileResult(bad), FatalError);

    bad = rec;
    pokeU64(bad, 61, 1ULL << 60); // gate count
    patchCrc(bad);
    EXPECT_THROW(decodeCompileResult(bad), FatalError);

    // Header payload length disagreeing with the buffer (both ways).
    bad = rec;
    pokeU64(bad, 8, bad.size()); // claims more than present
    EXPECT_THROW(decodeCompileResult(bad), FatalError);
    bad = rec;
    pokeU64(bad, 8, 1); // claims less -> trailing garbage
    EXPECT_THROW(decodeCompileResult(bad), FatalError);
}

TEST(SerializeCorruption, HostilePayloadFieldsAreFatalNotPanic)
{
    // Hand-built payloads that pass the checksum but violate payload
    // invariants. Each must be a FatalError from the decoder's own
    // validation -- notably the layout cases, which would QPANIC
    // inside Layout::place() if the decoder did not pre-validate.
    const auto expectFatal = [](const ByteWriter &payload,
                                const char *what) {
        const std::vector<std::uint8_t> rec = wrapPayload(payload);
        try {
            decodeCompileResult(rec);
            FAIL() << what << ": decoded";
        } catch (const FatalError &) {
        } catch (...) {
            FAIL() << what << ": threw something other than FatalError";
        }
    };

    const auto emptyLayout = [](ByteWriter &w) {
        w.i32(0); // numQubits
        w.i32(1); // numUnits
    };

    {
        ByteWriter w; // layout slot out of range
        w.str("x");
        w.i32(1);
        w.i32(1);
        w.i32(7); // only slots 0..1 exist
        expectFatal(w, "slot out of range");
    }
    {
        ByteWriter w; // duplicate slot occupancy
        w.str("x");
        w.i32(2);
        w.i32(2);
        w.i32(1);
        w.i32(1); // both qubits at slot 1
        expectFatal(w, "duplicate slot");
    }
    {
        ByteWriter w; // negative qubit count
        w.str("x");
        w.i32(-3);
        w.i32(1);
        expectFatal(w, "negative qubit count");
    }
    {
        ByteWriter w; // gate class out of range
        w.str("x");
        emptyLayout(w);
        emptyLayout(w);
        w.u64(1);
        w.u8(255); // cls
        expectFatal(w, "gate class");
    }
    {
        ByteWriter w; // logical gate type out of range
        w.str("x");
        emptyLayout(w);
        emptyLayout(w);
        w.u64(1);
        w.u8(0);   // cls = SqBare
        w.u8(200); // logical
        expectFatal(w, "logical type");
    }
    {
        ByteWriter w; // slot count beyond any physical gate's arity
        w.str("x");
        emptyLayout(w);
        emptyLayout(w);
        w.u64(1);
        w.u8(0);
        w.u8(0);
        w.u8(0);
        w.u8(0);  // routing flag
        w.u8(17); // nslots
        expectFatal(w, "slot count");
    }
    {
        ByteWriter w; // truncated mid-gate
        w.str("x");
        emptyLayout(w);
        emptyLayout(w);
        w.u64(1);
        w.u8(0);
        expectFatal(w, "truncated gate");
    }
}

// ------------------------------------------------------------------
// ArtifactStore: persistence + crash recovery
// ------------------------------------------------------------------

ArtifactKey
keyN(std::uint64_t n)
{
    return ArtifactKey{n, n * 31, n * 97, n * 131, "eqm"};
}

TEST(ArtifactStore, PutLoadRoundTripAndRestart)
{
    const std::string path = tempStorePath("roundtrip");
    Rng rng(7);
    std::vector<CompileResult> results;
    std::vector<std::vector<std::uint8_t>> blobs;
    for (int i = 0; i < 5; ++i) {
        results.push_back(randomResult(rng));
        blobs.push_back(encodeCompileResult(results.back()));
    }

    {
        ArtifactStore store(path);
        EXPECT_EQ(store.records(), 0u);
        for (int i = 0; i < 5; ++i)
            EXPECT_TRUE(store.put(keyN(i), blobs[i]));
        EXPECT_EQ(store.records(), 5u);
        EXPECT_EQ(store.deadRecords(), 0u);
        EXPECT_TRUE(store.contains(keyN(2)));
        EXPECT_FALSE(store.contains(keyN(99)));
    }

    // A fresh process on the same log sees every record, bit-intact.
    ArtifactStore store(path);
    EXPECT_EQ(store.records(), 5u);
    for (int i = 0; i < 5; ++i) {
        std::vector<std::uint8_t> blob;
        ASSERT_TRUE(store.load(keyN(i), blob));
        EXPECT_EQ(blob, blobs[i]);
        EXPECT_EQ(artifactDiff(results[i], decodeCompileResult(blob)), "");
    }
    std::remove(path.c_str());
}

TEST(ArtifactStore, TornTailRecoversIntactPrefixAtEveryCut)
{
    const std::string path = tempStorePath("torntail");
    Rng rng(11);
    const std::vector<std::uint8_t> blob_a =
        encodeCompileResult(randomResult(rng));
    const std::vector<std::uint8_t> blob_b =
        encodeCompileResult(randomResult(rng));

    std::uint64_t size_after_a = 0;
    std::uint64_t size_after_b = 0;
    {
        ArtifactStore store(path);
        ASSERT_TRUE(store.put(keyN(1), blob_a));
        size_after_a = store.bytesOnDisk();
        ASSERT_TRUE(store.put(keyN(2), blob_b));
        size_after_b = store.bytesOnDisk();
    }

    // Sever the log at every byte inside the second frame (a crash
    // mid-append) and demand reopen recovers exactly record 1.
    for (std::uint64_t cut = size_after_a; cut < size_after_b; ++cut) {
        std::remove(path.c_str());
        {
            ArtifactStore build(path);
            ASSERT_TRUE(build.put(keyN(1), blob_a));
            ASSERT_TRUE(build.put(keyN(2), blob_b));
        }
        {
            std::FILE *f = std::fopen(path.c_str(), "r+");
            ASSERT_NE(f, nullptr);
            ASSERT_EQ(::ftruncate(::fileno(f),
                                  static_cast<off_t>(cut)),
                      0);
            std::fclose(f);
        }
        ArtifactStore store(path);
        EXPECT_EQ(store.records(), 1u) << "cut at " << cut;
        std::vector<std::uint8_t> blob;
        ASSERT_TRUE(store.load(keyN(1), blob)) << "cut at " << cut;
        EXPECT_EQ(blob, blob_a) << "cut at " << cut;
        EXPECT_FALSE(store.contains(keyN(2)));
        // ...and the recovered log accepts appends again.
        ASSERT_TRUE(store.put(keyN(2), blob_b));
        std::vector<std::uint8_t> back;
        ASSERT_TRUE(store.load(keyN(2), back));
        EXPECT_EQ(back, blob_b);
    }
    std::remove(path.c_str());
}

TEST(ArtifactStore, CorruptMiddleFrameDropsItAndTheTail)
{
    const std::string path = tempStorePath("midframe");
    Rng rng(13);
    const auto blob = encodeCompileResult(randomResult(rng));
    std::uint64_t first_end = 0;
    {
        ArtifactStore store(path);
        ASSERT_TRUE(store.put(keyN(1), blob));
        first_end = store.bytesOnDisk();
        ASSERT_TRUE(store.put(keyN(2), blob));
        ASSERT_TRUE(store.put(keyN(3), blob));
    }
    {
        // Flip one byte inside frame 2's body.
        std::FILE *f = std::fopen(path.c_str(), "r+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, static_cast<long>(first_end) + 20, SEEK_SET);
        const int c = std::fgetc(f);
        std::fseek(f, static_cast<long>(first_end) + 20, SEEK_SET);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }
    ArtifactStore store(path);
    // An append-only log cannot trust anything past a bad frame.
    EXPECT_EQ(store.records(), 1u);
    EXPECT_TRUE(store.contains(keyN(1)));
    EXPECT_FALSE(store.contains(keyN(2)));
    EXPECT_FALSE(store.contains(keyN(3)));
    std::remove(path.c_str());
}

TEST(ArtifactStore, ForeignOrVersionBumpedHeaderStartsCold)
{
    const std::string path = tempStorePath("version");
    Rng rng(17);
    const auto blob = encodeCompileResult(randomResult(rng));
    {
        ArtifactStore store(path);
        ASSERT_TRUE(store.put(keyN(1), blob));
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "r+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 4, SEEK_SET);
        std::fputc(0x7f, f); // foreign format version
        std::fclose(f);
    }
    ArtifactStore store(path);
    EXPECT_EQ(store.records(), 0u); // started cold, not guessed
    ASSERT_TRUE(store.put(keyN(1), blob));
    std::vector<std::uint8_t> back;
    EXPECT_TRUE(store.load(keyN(1), back));
    std::remove(path.c_str());
}

TEST(ArtifactStore, CompactDropsDeadRecords)
{
    const std::string path = tempStorePath("compact");
    Rng rng(19);
    std::vector<std::vector<std::uint8_t>> blobs;
    for (int i = 0; i < 4; ++i)
        blobs.push_back(encodeCompileResult(randomResult(rng)));

    ArtifactStore store(path);
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(store.put(keyN(i), blobs[i]));
    EXPECT_EQ(store.records(), 4u);
    EXPECT_EQ(store.deadRecords(), 8u);
    const std::uint64_t before = store.bytesOnDisk();

    store.compact();
    EXPECT_EQ(store.records(), 4u);
    EXPECT_EQ(store.deadRecords(), 0u);
    EXPECT_LT(store.bytesOnDisk(), before);
    for (int i = 0; i < 4; ++i) {
        std::vector<std::uint8_t> blob;
        ASSERT_TRUE(store.load(keyN(i), blob));
        EXPECT_EQ(blob, blobs[i]);
    }

    // The compacted log must itself recover cleanly.
    ArtifactStore reopened(path);
    EXPECT_EQ(reopened.records(), 4u);
    std::remove(path.c_str());
}

TEST(ArtifactStore, ConcurrentPutsAndLoads)
{
    const std::string path = tempStorePath("concurrent");
    ArtifactStore store(path);
    Rng rng(23);
    std::vector<std::vector<std::uint8_t>> blobs;
    for (int i = 0; i < 16; ++i)
        blobs.push_back(encodeCompileResult(randomResult(rng)));

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store, &blobs, t] {
            for (int i = 0; i < 16; ++i) {
                store.put(keyN(i), blobs[i]);
                std::vector<std::uint8_t> blob;
                if (store.load(keyN((i + t) % 16), blob)) {
                    EXPECT_FALSE(blob.empty());
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(store.records(), 16u);
    for (int i = 0; i < 16; ++i) {
        std::vector<std::uint8_t> blob;
        ASSERT_TRUE(store.load(keyN(i), blob));
        EXPECT_EQ(blob, blobs[i]);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace qompress
