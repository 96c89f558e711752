/**
 * @file
 * Tests for resource vectors and device models (paper Table 2).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "device/device.hh"
#include "device/resources.hh"

namespace tapacs
{
namespace
{

TEST(ResourceVector, Arithmetic)
{
    ResourceVector a(100, 200, 10, 5, 1);
    ResourceVector b(50, 100, 5, 5, 0);
    ResourceVector c = a + b;
    EXPECT_DOUBLE_EQ(c[ResourceKind::Lut], 150.0);
    EXPECT_DOUBLE_EQ(c[ResourceKind::Dsp], 10.0);
    c -= b;
    EXPECT_TRUE(c == a);
    c *= 2.0;
    EXPECT_DOUBLE_EQ(c[ResourceKind::Ff], 400.0);
}

TEST(ResourceVector, FitsWithin)
{
    ResourceVector small(10, 10, 1, 1, 0);
    ResourceVector big(100, 100, 10, 10, 10);
    EXPECT_TRUE(small.fitsWithin(big));
    EXPECT_FALSE(big.fitsWithin(small));
    EXPECT_TRUE(small.fitsWithin(small));
}

TEST(ResourceVector, MaxUtilization)
{
    ResourceVector need(50, 10, 0, 9, 0);
    ResourceVector cap(100, 100, 10, 10, 10);
    EXPECT_DOUBLE_EQ(need.maxUtilization(cap), 0.9); // DSP binds
    EXPECT_DOUBLE_EQ(need.utilization(ResourceKind::Lut, cap), 0.5);

    // Requirement on a zero-capacity resource is infinite utilization.
    ResourceVector uram_need(0, 0, 0, 0, 1);
    ResourceVector no_uram(100, 100, 10, 10, 0);
    EXPECT_TRUE(std::isinf(uram_need.maxUtilization(no_uram)));
}

TEST(ResourceVector, Zero)
{
    ResourceVector z;
    EXPECT_TRUE(z.isZero());
    z[ResourceKind::Bram] = 1.0;
    EXPECT_FALSE(z.isZero());
}

TEST(ResourceKindNames, AllDistinct)
{
    EXPECT_STREQ(toString(ResourceKind::Lut), "LUT");
    EXPECT_STREQ(toString(ResourceKind::Ff), "FF");
    EXPECT_STREQ(toString(ResourceKind::Bram), "BRAM");
    EXPECT_STREQ(toString(ResourceKind::Dsp), "DSP");
    EXPECT_STREQ(toString(ResourceKind::Uram), "URAM");
}

TEST(SlotCoord, ManhattanDistance)
{
    SlotCoord a{0, 0}, b{1, 2};
    EXPECT_EQ(a.manhattan(b), 3);
    EXPECT_EQ(b.manhattan(a), 3);
    EXPECT_EQ(a.manhattan(a), 0);
}

TEST(U55C, MatchesPaperTable2)
{
    const DeviceModel dev = makeU55C();
    const ResourceVector &total = dev.totalResources();
    EXPECT_DOUBLE_EQ(total[ResourceKind::Lut], 1146240.0);
    EXPECT_DOUBLE_EQ(total[ResourceKind::Ff], 2292480.0);
    EXPECT_DOUBLE_EQ(total[ResourceKind::Bram], 1776.0);
    EXPECT_DOUBLE_EQ(total[ResourceKind::Dsp], 8376.0);
    EXPECT_DOUBLE_EQ(total[ResourceKind::Uram], 960.0);
}

TEST(U55C, SlotGridLayout)
{
    // "a grid with 6 slots divided into two columns and 3 rows".
    const DeviceModel dev = makeU55C();
    EXPECT_EQ(dev.cols(), 2);
    EXPECT_EQ(dev.rows(), 3);
    EXPECT_EQ(dev.numSlots(), 6);
    EXPECT_EQ(dev.numDies(), 3);
    EXPECT_DOUBLE_EQ(dev.maxFrequency(), 300.0e6);

    // Slot capacities sum back to the device totals.
    ResourceVector sum;
    for (const auto &slot : dev.slots())
        sum += slot.capacity;
    for (int r = 0; r < kNumResourceKinds; ++r) {
        const auto kind = static_cast<ResourceKind>(r);
        EXPECT_NEAR(sum[kind], dev.totalResources()[kind], 1e-6);
    }
}

TEST(U55C, HbmSurfacesInBottomRowOnly)
{
    const DeviceModel dev = makeU55C();
    EXPECT_EQ(dev.memoryRow(), 0);
    for (const auto &slot : dev.slots())
        EXPECT_EQ(slot.exposesMemory, slot.coord.row == 0);
}

TEST(U55C, MemorySystemConstants)
{
    const DeviceModel dev = makeU55C();
    const MemorySystem &mem = dev.memory();
    EXPECT_EQ(mem.channels, 32);
    EXPECT_DOUBLE_EQ(mem.aggregateBandwidth, 460.0e9);
    EXPECT_EQ(mem.capacity, 16_GiB);
    EXPECT_DOUBLE_EQ(mem.perChannelBandwidth(), 460.0e9 / 32.0);
    EXPECT_EQ(mem.saturatingPortWidthBits, 512);
}

TEST(U55C, OnChipHierarchy)
{
    // Paper Table 9: SRAM at 35 TBps; 43 MB capacity.
    const DeviceModel dev = makeU55C();
    EXPECT_DOUBLE_EQ(dev.onChipBandwidth(), 35.0e12);
    EXPECT_EQ(dev.onChipCapacity(), 43_MB);
}

TEST(U250, FourDies)
{
    const DeviceModel dev = makeU250();
    EXPECT_EQ(dev.numDies(), 4);
    EXPECT_EQ(dev.numSlots(), 8);
    EXPECT_EQ(dev.memory().channels, 4);
}

TEST(DeviceModel, SlotLookupByCoordinate)
{
    const DeviceModel dev = makeU55C();
    const Slot &s = dev.slot(1, 2);
    EXPECT_EQ(s.coord.col, 1);
    EXPECT_EQ(s.coord.row, 2);
    EXPECT_EQ(s.die, 2);
}

TEST(DeviceModelDeath, OutOfRangeSlot)
{
    const DeviceModel dev = makeU55C();
    EXPECT_DEATH(dev.slot(2, 0), "assertion");
    EXPECT_DEATH(dev.slot(0, 3), "assertion");
}

} // namespace
} // namespace tapacs
