/**
 * @file
 * Unit tests for the common utilities: RNG, strings, tables, errors,
 * and the LRU cache.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/error.hh"
#include "common/lru_cache.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "common/table.hh"

namespace qompress {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= (a() != b());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextUintRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextUint(17), 17u);
}

TEST(Rng, NextIntInclusiveRange)
{
    Rng rng(7);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i) {
        const int v = rng.nextInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextGaussian();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(13);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    rng.shuffle(v);
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 8u);
}

TEST(Rng, SampleIsSubset)
{
    Rng rng(15);
    const auto s = rng.sample(10, 4);
    EXPECT_EQ(s.size(), 4u);
    std::set<int> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 4u);
    for (int v : s) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 10);
    }
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("q%d:%s", 3, "x"), "q3:x");
    EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(Strings, JoinAndSplit)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
}

TEST(Table, AlignedOutputContainsCells)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvEscapesQuotesAndCommas)
{
    TablePrinter t({"a"});
    t.addRow({"x,y\"z"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(Table, RowArityMismatchPanics)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Errors, FatalAndPanicCarryMessages)
{
    try {
        QFATAL("bad input ", 42);
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad input 42"),
                  std::string::npos);
    }
    EXPECT_THROW(QPANIC("boom"), PanicError);
    EXPECT_NO_THROW(QPANIC_IF(false, "no"));
    EXPECT_THROW(QPANIC_IF(true, "yes"), PanicError);
}

TEST(Strings, ParseDigitsIsStrict)
{
    EXPECT_EQ(parseDigits("0"), 0u);
    EXPECT_EQ(parseDigits("8080"), 8080u);
    EXPECT_EQ(parseDigits("9999999999999999999"), 9999999999999999999ull);
    for (const char *bad : {"", "abc", "1k", "-1", "+1", " 1", "1 ", "0x10",
                            "1.5", "99999999999999999999"})
        EXPECT_FALSE(parseDigits(bad).has_value()) << "'" << bad << "'";
    EXPECT_EQ(parseDigits("1234567", 7), 1234567u);
    EXPECT_FALSE(parseDigits("12345678", 7).has_value());
}

TEST(Strings, NumericFlagsRejectMalformedAndOutOfRange)
{
    EXPECT_EQ(parseIntFlag("0", "--port", 0, 65535), 0u);
    EXPECT_EQ(parseIntFlag("65535", "--port", 0, 65535), 65535u);
    for (const char *bad : {"", "abc", "1k", "-1", "65536"}) {
        try {
            parseIntFlag(bad, "--port", 0, 65535);
            FAIL() << "accepted '" << bad << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--port"),
                      std::string::npos);
        }
    }
    EXPECT_THROW(parseIntFlag("0", "--workers", 1, 8), FatalError);

    EXPECT_DOUBLE_EQ(parseRealFlag("2.5", "--x", 0.0, 10.0), 2.5);
    EXPECT_DOUBLE_EQ(parseRealFlag("1e3", "--x", 0.0, 1e4), 1000.0);
    EXPECT_DOUBLE_EQ(parseRealFlag("0", "--x", 0.0, 1.0), 0.0);
    for (const char *bad : {"", "abc", "nan", "inf", "1e999", "0x10",
                            " 1", "1.5ms", "-0.5", "11"})
        EXPECT_THROW(parseRealFlag(bad, "--x", 0.0, 10.0), FatalError)
            << "'" << bad << "'";
}

using IntLru = LruCache<int, std::string>;

TEST(LruCache, HitPromotesToMostRecent)
{
    IntLru c(2);
    c.insert(1, "a");
    c.insert(2, "b");
    ASSERT_NE(c.get(1), nullptr); // 1 is now most recent...
    EXPECT_EQ(*c.get(1), "a");
    c.insert(3, "c");             // ...so 2 is the one dropped
    EXPECT_EQ(c.get(2), nullptr);
    EXPECT_NE(c.get(1), nullptr);
    EXPECT_NE(c.get(3), nullptr);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(LruCache, EntryCapAndByteBudgetCountSeparately)
{
    IntLru c(3, 10);
    c.insert(1, "a", 4);
    c.insert(2, "b", 4);
    EXPECT_EQ(c.bytes(), 8u);
    c.insert(3, "c", 4); // 12 > 10: the byte budget drops 1
    EXPECT_EQ(c.sizeEvictions(), 1u);
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_EQ(c.bytes(), 8u);
    EXPECT_EQ(c.get(1), nullptr);
    c.insert(4, "d", 0);
    c.insert(5, "e", 0); // 4 entries > cap 3: the entry cap drops 2
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_EQ(c.sizeEvictions(), 1u);
    EXPECT_EQ(c.get(2), nullptr);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.bytes(), 4u);
}

TEST(LruCache, EntryOverBudgetIsNotRetained)
{
    IntLru c(4, 10);
    c.insert(1, "a", 3);
    EXPECT_TRUE(c.insert(2, "huge", 11));
    EXPECT_EQ(c.get(2), nullptr);
    EXPECT_EQ(c.size(), 0u); // it flushed everything older on its way out
    EXPECT_EQ(c.bytes(), 0u);
    EXPECT_EQ(c.sizeEvictions(), 2u);
    c.insert(3, "c", 10); // exactly the budget fits
    EXPECT_NE(c.get(3), nullptr);
}

TEST(LruCache, DuplicateInsertKeepsFirst)
{
    IntLru c(2, 100);
    EXPECT_TRUE(c.insert(1, "first", 5));
    EXPECT_FALSE(c.insert(1, "second", 50));
    EXPECT_EQ(*c.get(1), "first");
    c.insert(2, "b", 5);
    EXPECT_FALSE(c.insert(1, "third", 50));
    EXPECT_EQ(c.bytes(), 10u); // the refused charge is not added
    c.insert(3, "c");          // the refused insert did not promote 1
    EXPECT_EQ(c.get(1), nullptr);
    EXPECT_NE(c.get(2), nullptr);
}

TEST(LruCache, SetCapacityShrinksNow)
{
    IntLru c(4);
    for (int k = 0; k < 4; ++k)
        c.insert(k, "v");
    c.get(0);
    c.setCapacity(1);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.capacity(), 1u);
    EXPECT_EQ(c.evictions(), 3u);
    EXPECT_NE(c.get(0), nullptr); // the most recent survives
    c.setCapacity(0);
    EXPECT_EQ(c.size(), 0u);
    c.insert(9, "v"); // capacity 0 retains nothing
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.evictions(), 5u);
}

TEST(LruCache, ClearResetsSizeAndBytes)
{
    IntLru c(4, 100);
    c.insert(1, "a", 30);
    c.insert(2, "b", 30);
    c.clear();
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.bytes(), 0u);
    EXPECT_EQ(c.get(1), nullptr);
    c.insert(3, "c", 90); // the whole budget is free again
    EXPECT_EQ(c.sizeEvictions(), 0u);
    c.insert(1, "a", 10);
    EXPECT_EQ(c.size(), 2u);
}

} // namespace
} // namespace qompress
