/**
 * @file
 * Unit tests for src/common: logging helpers, units, RNG, stats and
 * the table renderer.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace tapacs
{
namespace
{

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d", 42), "x=42");
    EXPECT_EQ(strprintf("%.2f %s", 3.14159, "pi"), "3.14 pi");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strprintf, HandlesLongOutput)
{
    std::string big(5000, 'a');
    EXPECT_EQ(strprintf("%s", big.c_str()).size(), 5000u);
}

TEST(Units, BinaryLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(2_GiB, 2ull * 1024 * 1024 * 1024);
}

TEST(Units, DecimalLiterals)
{
    EXPECT_EQ(1_KB, 1000u);
    EXPECT_EQ(3_MB, 3'000'000u);
    EXPECT_EQ(1_GB, 1'000'000'000u);
}

TEST(Units, BandwidthConversions)
{
    // 100 Gbps Ethernet = 12.5 GB/s.
    EXPECT_DOUBLE_EQ(gbpsToBytesPerSec(100.0), 12.5e9);
    // Paper Table 9: HBM at 460 GBps.
    EXPECT_DOUBLE_EQ(gBytesPerSecToBytesPerSec(460.0), 460.0e9);
}

TEST(Units, TimeLiterals)
{
    EXPECT_DOUBLE_EQ(1_us, 1.0e-6);
    EXPECT_DOUBLE_EQ(1250_ns, 1.25e-6);
    EXPECT_DOUBLE_EQ(3.96_ms, 3.96e-3);
}

TEST(Units, FrequencyLiterals)
{
    EXPECT_DOUBLE_EQ(300_MHz, 3.0e8);
    EXPECT_DOUBLE_EQ(2.45_GHz, 2.45e9);
}

TEST(Units, Formatting)
{
    EXPECT_EQ(formatFrequency(300_MHz), "300 MHz");
    EXPECT_EQ(formatBytes(1024.0), "1.00 KiB");
    EXPECT_EQ(formatSeconds(0.00396), "3.96 ms");
    EXPECT_EQ(formatBandwidth(12.5e9), "12.50 GB/s");
}

TEST(Rng, Deterministic)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(99);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, PowerLawBoundsAndSkew)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.powerLawInt(1, 1000, 2.5);
        ASSERT_GE(v, 1u);
        ASSERT_LE(v, 1000u);
        sum += static_cast<double>(v);
    }
    // Heavy-tailed but mean far below the midpoint of the range.
    EXPECT_LT(sum / 5000.0, 50.0);
}

TEST(StatRegistry, Scalars)
{
    StatRegistry stats;
    EXPECT_DOUBLE_EQ(stats.get("a"), 0.0); // unknown names read 0
    stats.set("a", 3.5);
    EXPECT_DOUBLE_EQ(stats.get("a"), 3.5);
    stats.set("a", 1.0);
    EXPECT_DOUBLE_EQ(stats.get("a"), 1.0);
}

TEST(TextTable, RendersAlignedCells)
{
    TextTable t({"Name", "Value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| Name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, SeparatorAndTitle)
{
    TextTable t({"A"});
    t.setTitle("My Table");
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    const std::string out = t.render();
    EXPECT_EQ(out.rfind("My Table", 0), 0u);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTableDeath, WrongCellCount)
{
    TextTable t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "assertion");
}

} // namespace
} // namespace tapacs
