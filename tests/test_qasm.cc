/**
 * @file
 * Tests for the OpenQASM 2.0 front end: parsing, expression
 * evaluation, error reporting, and the dump/parse round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "circuits/arithmetic.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "ir/fingerprint.hh"
#include "ir/qasm.hh"

namespace qompress {
namespace {

TEST(Qasm, ParsesBasicProgram)
{
    const Circuit c = parseQasm(R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        creg c[3];
        h q[0];
        cx q[0], q[1];
        ccx q[0], q[1], q[2];
        measure q[0] -> c[0];
    )");
    EXPECT_EQ(c.numQubits(), 3);
    ASSERT_EQ(c.numGates(), 3); // measure ignored
    EXPECT_EQ(c.gates()[0].type, GateType::H);
    EXPECT_EQ(c.gates()[1].type, GateType::CX);
    EXPECT_EQ(c.gates()[2].type, GateType::CCX);
}

TEST(Qasm, ParsesParameters)
{
    const Circuit c = parseQasm(R"(
        OPENQASM 2.0;
        qreg q[1];
        rz(0.5) q[0];
        rx(pi/2) q[0];
        ry(-pi/4) q[0];
        rz(2*pi) q[0];
        rx(1e-3) q[0];
        rz((pi + 1) / 2) q[0];
    )");
    ASSERT_EQ(c.numGates(), 6);
    EXPECT_DOUBLE_EQ(c.gates()[0].param, 0.5);
    EXPECT_DOUBLE_EQ(c.gates()[1].param, M_PI / 2);
    EXPECT_DOUBLE_EQ(c.gates()[2].param, -M_PI / 4);
    EXPECT_DOUBLE_EQ(c.gates()[3].param, 2 * M_PI);
    EXPECT_DOUBLE_EQ(c.gates()[4].param, 1e-3);
    EXPECT_DOUBLE_EQ(c.gates()[5].param, (M_PI + 1) / 2);
}

TEST(Qasm, CommentsAndWhitespace)
{
    const Circuit c = parseQasm(
        "OPENQASM 2.0; // header\n"
        "qreg q[2]; // two qubits\n"
        "// a full-line comment\n"
        "   h   q[ 0 ] ;\n"
        "cx q[0],q[1];\n");
    EXPECT_EQ(c.numGates(), 2);
}

TEST(Qasm, ErrorsCarryLineNumbers)
{
    try {
        parseQasm("OPENQASM 2.0;\nqreg q[2];\nbadgate q[0];\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Qasm, RejectsOutOfRangeQubit)
{
    EXPECT_THROW(
        parseQasm("OPENQASM 2.0; qreg q[2]; cx q[0], q[5];"),
        FatalError);
}

TEST(Qasm, RejectsMissingHeader)
{
    EXPECT_THROW(parseQasm("qreg q[2];"), FatalError);
}

TEST(Qasm, RejectsGateBeforeQreg)
{
    EXPECT_THROW(parseQasm("OPENQASM 2.0; h q[0]; qreg q[2];"),
                 FatalError);
}

TEST(Qasm, RejectsParamOnFixedGate)
{
    EXPECT_THROW(
        parseQasm("OPENQASM 2.0; qreg q[1]; h(0.5) q[0];"),
        FatalError);
    EXPECT_THROW(
        parseQasm("OPENQASM 2.0; qreg q[1]; rz q[0];"),
        FatalError);
}

TEST(Qasm, RejectsUnknownRegister)
{
    EXPECT_THROW(
        parseQasm("OPENQASM 2.0; qreg q[2]; cx r[0], q[1];"),
        FatalError);
}

TEST(Qasm, RoundTripThroughDump)
{
    // Every benchmark family must survive toQasm -> parseQasm.
    for (const auto &family : benchmarkFamilies()) {
        const Circuit original =
            family.make(std::max(family.minQubits, 10));
        const Circuit reparsed = parseQasm(original.toQasm(),
                                           original.name());
        ASSERT_EQ(reparsed.numQubits(), original.numQubits())
            << family.name;
        ASSERT_EQ(reparsed.numGates(), original.numGates())
            << family.name;
        for (int i = 0; i < original.numGates(); ++i) {
            EXPECT_EQ(reparsed.gates()[i].type,
                      original.gates()[i].type);
            EXPECT_EQ(reparsed.gates()[i].qubits,
                      original.gates()[i].qubits);
            EXPECT_NEAR(reparsed.gates()[i].param,
                        original.gates()[i].param, 1e-9);
        }
    }
}

TEST(Qasm, FileNotFound)
{
    EXPECT_THROW(parseQasmFile("/nonexistent/file.qasm"), FatalError);
}

// ------------------------------------------------------------------
// Lexer bugfix regressions: these inputs used to hit undefined
// behavior or be silently mis-accepted. Each must now be a FatalError
// naming the offending line.
// ------------------------------------------------------------------

/** Expect parseQasm(@p src) to throw FatalError (never PanicError or
 *  anything else) and return its message. */
std::string
expectFatal(const std::string &src)
{
    try {
        parseQasm(src);
    } catch (const FatalError &e) {
        return e.what();
    } catch (const PanicError &e) {
        ADD_FAILURE() << "PanicError escaped for input: " << src
                      << "\n  " << e.what();
        return "";
    } catch (const std::exception &e) {
        ADD_FAILURE() << "non-Fatal exception for input: " << src
                      << "\n  " << e.what();
        return "";
    }
    ADD_FAILURE() << "no error for input: " << src;
    return "";
}

TEST(QasmBugfix, IntegerLiteralOverflowIsFatalNotUB)
{
    // Used to accumulate into int with signed-overflow UB; now capped
    // with a checked wide accumulator.
    const std::string msg =
        expectFatal("OPENQASM 2.0;\nqreg q[99999999999999];\nx q[0];");
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("integer literal"), std::string::npos) << msg;
    // Same guard on qubit indices.
    expectFatal("OPENQASM 2.0; qreg q[2]; x q[99999999999999];");
    // A 10-digit value just past the cap is also rejected...
    expectFatal("OPENQASM 2.0; qreg q[2000000000]; x q[0];");
    // ...while the cap itself still lexes (then fails the qreg-size
    // check, not the literal check).
    const std::string capMsg =
        expectFatal("OPENQASM 2.0; qreg q[1000000000]; x q[0];");
    EXPECT_EQ(capMsg.find("integer literal"), std::string::npos)
        << capMsg;
}

TEST(QasmBugfix, TrailingGarbageNumbersAreFatalNotTruncated)
{
    // stod used to parse the "1.2" prefix of "1.2.3" and the lexer
    // dropped the rest; now the whole token must be consumed.
    const std::string msg = expectFatal(
        "OPENQASM 2.0;\nqreg q[1];\nrz(1.2.3) q[0];");
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1.2.3"), std::string::npos) << msg;
    // Incomplete exponent: stod throws, surfaced as the same error.
    expectFatal("OPENQASM 2.0; qreg q[1]; rz(1e) q[0];");
    expectFatal("OPENQASM 2.0; qreg q[1]; rz(1.2e+) q[0];");
    // Well-formed scientific notation still parses.
    const Circuit ok = parseQasm(
        "OPENQASM 2.0; qreg q[1]; rz(1.25e-2) q[0];");
    EXPECT_DOUBLE_EQ(ok.gates()[0].param, 1.25e-2);
}

TEST(QasmBugfix, DuplicateQubitOperandIsFatal)
{
    const std::string msg = expectFatal(
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];");
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate qubit operand"), std::string::npos)
        << msg;
    expectFatal("OPENQASM 2.0; qreg q[3]; ccx q[1],q[2],q[1];");
    expectFatal("OPENQASM 2.0; qreg q[3]; swap q[2],q[2];");
}

// ------------------------------------------------------------------
// Adversarial inputs: the parser fronts untrusted network bodies via
// qompressd, so every hostile shape must fail closed as FatalError --
// never a PanicError (internal-bug class), never a crash.
// ------------------------------------------------------------------

TEST(QasmAdversarial, HostileInputsAlwaysFailAsFatalError)
{
    const std::vector<std::string> hostile = {
        "",                                     // empty body
        "OPENQASM",                             // truncated header
        "OPENQASM 3.0; qreg q[2];",             // wrong version
        "OPENQASM 2.0;",                        // no qreg, no gates
        "OPENQASM 2.0; qreg q[2]; cx q[0],",    // truncated operands
        "OPENQASM 2.0; qreg q[2]; cx q[0]",     // missing semicolon
        "OPENQASM 2.0; qreg q[2]; cx q[0],q[1]",// EOF inside statement
        "OPENQASM 2.0; qreg q[2]; rz( q[0];",   // unterminated expr
        "OPENQASM 2.0; qreg q[",                // EOF inside index
        "OPENQASM 2.0; qreg q[2]; h p[0];",     // unknown register
        "OPENQASM 2.0; h q[0]; qreg q[2];",     // gate before qreg
        "OPENQASM 2.0; qreg q[200000]; x q[0];",// oversized qreg
        "OPENQASM 2.0; qreg q[0];",             // empty qreg
        "OPENQASM 2.0; qreg q[-3];",            // negative qreg
        "OPENQASM 2.0; qreg q[2]; x q[-1];",    // negative index
        "OPENQASM 2.0; qreg q[1]; rz(nonsense) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1/0) q[0];",   // division by zero
        "OPENQASM 2.0; qreg q[1]; rz(1,2) q[0];",   // two params
        "\xff\xfe garbage \x00 bytes",              // binary noise
    };
    for (const std::string &src : hostile)
        expectFatal(src);
}

TEST(QasmAdversarial, DeepParenNestingIsBoundedNotStackOverflow)
{
    // The recursive-descent expression parser caps nesting depth; a
    // parenthesis bomb must be a FatalError, not exhausted stack.
    const std::string bomb = "OPENQASM 2.0; qreg q[1]; rz(" +
                             std::string(5000, '(') + "1" +
                             std::string(5000, ')') + ") q[0];";
    const std::string msg = expectFatal(bomb);
    EXPECT_NE(msg.find("nest"), std::string::npos) << msg;
    // Reasonable nesting still works.
    const Circuit ok = parseQasm("OPENQASM 2.0; qreg q[1]; rz(((((1 + "
                                 "2)))))  q[0];");
    EXPECT_DOUBLE_EQ(ok.gates()[0].param, 3.0);
}

// ------------------------------------------------------------------
// The single-pass lexer: it must accept exactly what the token-copying
// lexer before it accepted, produce bit-identical doubles (memo and
// disk keys hash the raw parameter bits), and fail with the same
// FatalErrors on the same lines.
// ------------------------------------------------------------------

/** The "qasm line N" of a FatalError message, or -1. */
int
errorLine(const std::string &msg)
{
    const std::string tag = "qasm line ";
    const auto at = msg.find(tag);
    if (at == std::string::npos)
        return -1;
    return std::atoi(msg.c_str() + at + tag.size());
}

TEST(QasmLexer, RegistryFingerprintsArePinned)
{
    // circuitFingerprint(parseQasm(toQasm())) of every registry family
    // at the warm catalog's sizes, recorded with the std::stod-based
    // lexer this one replaced. Equal values prove the doubles are
    // bit-equal, so memo and artifact-store keys are unchanged.
    struct Pin
    {
        const char *family;
        int size;
        std::uint64_t fp;
    };
    const std::vector<Pin> pins = {
        {"cuccaro", 10, 0xfda593c8d27e6ce0ULL},
        {"cuccaro", 20, 0xc20fe228a417d3f6ULL},
        {"cuccaro", 30, 0xf03b23f0fadcf244ULL},
        {"cuccaro", 40, 0xf9772db045b39e3aULL},
        {"cuccaro", 50, 0xd1de2bc7a095f5f8ULL},
        {"cuccaro", 60, 0xfd8e8c1b7dbe55aeULL},
        {"cnu", 10, 0x9be3faab87d3f045ULL},
        {"cnu", 20, 0x74f7e90b608e5330ULL},
        {"cnu", 30, 0x99a86cf0ff343dafULL},
        {"cnu", 40, 0xc4ca02be141ba84aULL},
        {"cnu", 50, 0x345ab9f61da69999ULL},
        {"cnu", 60, 0x689419b5383281d4ULL},
        {"qram", 10, 0x5997d440b51aae7cULL},
        {"qram", 20, 0x19ef822743f897e3ULL},
        {"qram", 30, 0x19ef822743f897e3ULL},
        {"qram", 40, 0x926d71086d606df2ULL},
        {"qram", 50, 0x926d71086d606df2ULL},
        {"qram", 60, 0x926d71086d606df2ULL},
        {"bv", 10, 0x0214a0ad1f46d69aULL},
        {"bv", 20, 0x070789008d31e26fULL},
        {"bv", 30, 0x92e70c6f410a97faULL},
        {"bv", 40, 0xb4eab34bc2cee138ULL},
        {"bv", 50, 0xeaa53bfc206d7806ULL},
        {"bv", 60, 0x92aa14c1fe723f48ULL},
        {"qaoa_random", 10, 0xd5a243452b308b97ULL},
        {"qaoa_random", 20, 0xfecc22b5918828a5ULL},
        {"qaoa_random", 30, 0x1d13188e053a70e5ULL},
        {"qaoa_random", 40, 0xf7f5e60996264a62ULL},
        {"qaoa_random", 50, 0x0437bc14bb85e670ULL},
        {"qaoa_random", 60, 0x7bb3145f8d975c92ULL},
        {"qaoa_cylinder", 10, 0xb556abe4b825d0ffULL},
        {"qaoa_cylinder", 20, 0x67a9e4a11b49c9c0ULL},
        {"qaoa_cylinder", 30, 0x6b3dfdff63b611e0ULL},
        {"qaoa_cylinder", 40, 0x07a9ec95ccffda20ULL},
        {"qaoa_cylinder", 50, 0x90f5d12aab2d7864ULL},
        {"qaoa_cylinder", 60, 0x72c0b3785589ab7fULL},
        {"qaoa_torus", 10, 0xea99a275ae22d0d4ULL},
        {"qaoa_torus", 20, 0x7d2efeaddf2b092cULL},
        {"qaoa_torus", 30, 0x931c652d292696a8ULL},
        {"qaoa_torus", 40, 0x7eb63ac28f84b160ULL},
        {"qaoa_torus", 50, 0xfa1135c339a26be0ULL},
        {"qaoa_torus", 60, 0x3aaba201c9a41b1bULL},
        {"qaoa_bwt", 10, 0x1564fb05c9625504ULL},
        {"qaoa_bwt", 20, 0x83387919665f78f0ULL},
        {"qaoa_bwt", 30, 0x0ee532fb51b7c5f8ULL},
        {"qaoa_bwt", 40, 0x7fb6a239a680c810ULL},
        {"qaoa_bwt", 50, 0x68a7c55613ab323cULL},
        {"qaoa_bwt", 60, 0x2dd90c3a1e5ad618ULL},
        {"qaoa_heavyhex", 10, 0x67e6b8fb840202f0ULL},
        {"qaoa_heavyhex", 20, 0xf323b6c59b176665ULL},
        {"qaoa_heavyhex", 30, 0x36562cf7e48e4548ULL},
        {"qaoa_heavyhex", 40, 0x94c5889ad262bb14ULL},
        {"qaoa_heavyhex", 50, 0x72c710108b51a329ULL},
        {"qaoa_heavyhex", 60, 0x7976ac1854380f00ULL},
    };
    std::size_t checked = 0;
    for (const auto &f : benchmarkFamilies()) {
        for (int size = 10; size <= 60; size += 10) {
            const Circuit c = f.make(std::max(size, f.minQubits));
            const std::uint64_t fp =
                circuitFingerprint(parseQasm(c.toQasm(), "request"));
            const auto pin = std::find_if(
                pins.begin(), pins.end(), [&](const Pin &p) {
                    return f.name == p.family && p.size == size;
                });
            ASSERT_NE(pin, pins.end()) << f.name << " " << size;
            EXPECT_EQ(fp, pin->fp) << f.name << " " << size;
            ++checked;
        }
    }
    EXPECT_EQ(checked, pins.size());
}

TEST(QasmLexer, NumericEdgeLiteralsBehaveAsStod)
{
    const auto rz = [](const std::string &lit) {
        return "OPENQASM 2.0;\nqreg q[1];\nrz(" + lit + ") q[0];\n";
    };
    // Overflow and underflow (to zero or to a subnormal) are ERANGE,
    // which std::stod turned into a bad-number error.
    for (const std::string lit :
         {"1e400", "1e-400", "1e-310", "1.7976931348623159e308"}) {
        const std::string msg = expectFatal(rz(lit));
        EXPECT_EQ(errorLine(msg), 3) << msg;
        EXPECT_NE(msg.find("bad number '" + lit + "'"), std::string::npos)
            << msg;
    }
    EXPECT_EQ(parseQasm(rz("1e308")).gates()[0].param, 1e308);
    EXPECT_EQ(parseQasm(rz("2.5e-308")).gates()[0].param, 2.5e-308);
    // Literals longer than the lexer's stack buffer take the same
    // path through a heap copy: valid ones parse to the same double,
    // malformed ones report the whole token.
    const std::string tiny = "0." + std::string(200, '0') + "15";
    EXPECT_EQ(parseQasm(rz(tiny)).gates()[0].param, 1.5e-201);
    const std::string padded = std::string(100, '0') + "1.5";
    EXPECT_EQ(parseQasm(rz(padded)).gates()[0].param, 1.5);
    const std::string bad = "1." + std::string(100, '0') + "5.5";
    const std::string msg = expectFatal(rz(bad));
    EXPECT_NE(msg.find("bad number '" + bad + "'"), std::string::npos)
        << msg;
}

/** Insertion points where whitespace or a comment cannot change the
 *  token stream: right after a delimiter or whitespace, and never
 *  inside a `//` comment (a newline there would end it early). */
std::vector<std::size_t>
neutralInsertionPoints(const std::string &src)
{
    std::vector<bool> in_comment(src.size() + 1, false);
    for (std::size_t i = 0; i + 1 < src.size(); ++i) {
        if (src[i] == '/' && src[i + 1] == '/') {
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '\n')
                in_comment[j++] = true;
            i = j;
        }
    }
    std::vector<std::size_t> out = {0};
    for (std::size_t p = 1; p <= src.size(); ++p) {
        const char prev = src[p - 1];
        if (!in_comment[p] && (std::strchr(";,[]()", prev) ||
                               std::isspace(static_cast<unsigned char>(
                                   prev)))) {
            out.push_back(p);
        }
    }
    return out;
}

TEST(QasmLexer, SeededMutationFuzz)
{
    std::vector<std::string> bases = {
        "OPENQASM 2.0; // header\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "creg c[3];\n// a comment line\nh q[0];\ncx q[0], q[1];\n"
        "rz((pi + 1) / 2) q[2];\nrx(-1.25e-2*pi) q[1];\n"
        "barrier q[0],q[1];\nccx q[0],q[1],q[2];\n"
        "measure q[0] -> c[0];\n",
        "OPENQASM 2.0;\nqreg r[2];\nswap r[1],r[0];\nry(+0.5/3) r[0];\n"
        "cz r[0] , r[1];\n",
    };
    for (const auto &f : benchmarkFamilies())
        bases.push_back(f.make(std::max(f.minQubits, 5)).toQasm());

    std::vector<std::uint64_t> base_fp;
    std::vector<int> base_error_line;
    const std::string bogus = "\nbogus q[0];\n";
    for (const std::string &b : bases) {
        base_fp.push_back(circuitFingerprint(parseQasm(b)));
        base_error_line.push_back(errorLine(expectFatal(b + bogus)));
        ASSERT_GT(base_error_line.back(), 0);
    }

    Rng rng(0x9a5cULL);
    const char kSpace[] = " \t\r\n\v\f";
    int parsed = 0, failed = 0, neutral = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        const std::size_t b = rng.nextUint(bases.size());
        std::string src = bases[b];
        const int kind = rng.nextInt(0, 4);
        if (kind <= 2) {
            // Truncation, byte flip, byte insert: anything goes, but
            // the outcome must be a Circuit or a FatalError.
            const std::size_t pos = rng.nextUint(src.size() + 1);
            if (kind == 0) {
                src.resize(pos);
            } else if (kind == 1 && pos < src.size()) {
                src[pos] = static_cast<char>(rng.nextUint(256));
            } else {
                src.insert(src.begin() + static_cast<long>(pos),
                           static_cast<char>(rng.nextUint(256)));
            }
            try {
                parseQasm(src);
                ++parsed;
            } catch (const FatalError &) {
                ++failed;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "non-Fatal exception " << e.what()
                              << " for input:\n" << src;
            }
            continue;
        }
        // Whitespace or comment insertion at a neutral point keeps the
        // circuit and shifts later error lines by the newlines added.
        std::string insert;
        if (kind == 3) {
            const int n = rng.nextInt(1, 4);
            for (int k = 0; k < n; ++k)
                insert += kSpace[rng.nextUint(sizeof kSpace - 1)];
        } else {
            insert = " // note (x, y) [1] 2.0e-3\n";
            insert += std::string(rng.nextUint(3), '\n');
        }
        const auto points = neutralInsertionPoints(src);
        const std::size_t at = points[rng.nextUint(points.size())];
        src.insert(at, insert);
        ++neutral;
        try {
            EXPECT_EQ(circuitFingerprint(parseQasm(src)), base_fp[b])
                << "insertion at " << at << ":\n" << src;
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what() << " for input:\n" << src;
            continue;
        }
        const int shift = static_cast<int>(
            std::count(insert.begin(), insert.end(), '\n'));
        EXPECT_EQ(errorLine(expectFatal(src + bogus)),
                  base_error_line[b] + shift)
            << "insertion at " << at << ":\n" << src;
    }
    // Every mutation class was exercised.
    EXPECT_GT(parsed, 100);
    EXPECT_GT(failed, 1000);
    EXPECT_GT(neutral, 1500);
}

} // namespace
} // namespace qompress
