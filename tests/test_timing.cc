/**
 * @file
 * Tests for the frequency model: pipelining gains, congestion
 * penalties, HBM pressure and routing failure.
 */

#include <gtest/gtest.h>

#include "timing/frequency.hh"

namespace tapacs
{
namespace
{

struct Rig
{
    TaskGraph g;
    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    SlotPlacement place;

    VertexId
    add(const std::string &name, const ResourceVector &area, int col,
        int row, DeviceId dev = 0)
    {
        const VertexId v = g.addVertex(name, area);
        part.deviceOf.push_back(dev);
        place.slotOf.push_back(SlotCoord{col, row});
        return v;
    }

    TimingResult
    timing(const PipelinePlan &plan,
           const std::vector<Hertz> &ceilings = {},
           const HbmBinding *binding = nullptr)
    {
        return estimateTiming(g, cluster, part, place, plan, ceilings,
                              ResourceVector{}, binding);
    }

    PipelinePlan
    plan(int stagesPerCrossing)
    {
        PipelineOptions opt;
        opt.stagesPerCrossing = stagesPerCrossing;
        return planPipelining(g, cluster, part, place, opt);
    }
};

TEST(Timing, EmptyDeviceRunsAtBoardMax)
{
    Rig r;
    r.add("only", ResourceVector(1000, 1000, 0, 0, 0), 0, 0);
    TimingResult t = r.timing(r.plan(2));
    EXPECT_TRUE(t.allRoutable);
    EXPECT_DOUBLE_EQ(t.designFmax, 300.0e6);
}

TEST(Timing, PipeliningBeatsUnpipelined)
{
    Rig r;
    const VertexId a = r.add("a", ResourceVector(1000, 1000, 0, 0, 0),
                             0, 0);
    const VertexId b = r.add("b", ResourceVector(1000, 1000, 0, 0, 0),
                             1, 2);
    r.g.addEdge(a, b, 64);
    TimingResult unpiped = r.timing(r.plan(0));
    TimingResult piped = r.timing(r.plan(2));
    ASSERT_TRUE(unpiped.allRoutable && piped.allRoutable);
    EXPECT_GT(piped.designFmax, unpiped.designFmax);
    // An unpipelined 3-crossing wire is far below the board max.
    EXPECT_LT(unpiped.designFmax, 200.0e6);
}

TEST(Timing, CongestionDegradesFrequency)
{
    const ResourceVector slot_cap = makeU55C().slots()[0].capacity;
    Rig light;
    light.add("t", slot_cap * 0.3, 0, 0);
    Rig heavy;
    heavy.add("t", slot_cap * 0.9, 0, 0);
    const std::vector<Hertz> ceil = {340.0e6};
    TimingResult lt = light.timing(light.plan(2), ceil);
    TimingResult ht = heavy.timing(heavy.plan(2), ceil);
    ASSERT_TRUE(lt.allRoutable && ht.allRoutable);
    EXPECT_GT(lt.designFmax, ht.designFmax);
    // Light sits below the congestion knee, heavy between the knee
    // and the routing cliff.
    EXPECT_LT(lt.perDevice[0].maxSlotUtil, kCongestionKnee);
    EXPECT_GT(ht.perDevice[0].maxSlotUtil, kCongestionKnee);
    EXPECT_LT(ht.perDevice[0].maxSlotUtil, kRoutableUtil);
}

TEST(Timing, RoutingFailsBeyondCliff)
{
    const ResourceVector slot_cap = makeU55C().slots()[0].capacity;
    Rig r;
    r.add("t", slot_cap * 0.99, 0, 0);
    TimingResult t = r.timing(r.plan(2));
    EXPECT_GT(t.perDevice[0].maxSlotUtil, kRoutableUtil);
    EXPECT_FALSE(t.allRoutable);
    EXPECT_FALSE(t.perDevice[0].routable);
    EXPECT_DOUBLE_EQ(t.designFmax, 0.0);
    EXPECT_NE(t.perDevice[0].critical.find("routing failure"),
              std::string::npos);
}

TEST(Timing, ModuleCeilingRespected)
{
    Rig r;
    r.add("slowmod", ResourceVector(1000, 1000, 0, 0, 0), 0, 0);
    TimingResult t = r.timing(r.plan(2), {220.0e6});
    ASSERT_TRUE(t.allRoutable);
    EXPECT_NEAR(t.designFmax, 220.0e6, 1.0e6);
    EXPECT_NE(t.perDevice[0].critical.find("slowmod"),
              std::string::npos);
}

TEST(Timing, DieCrossingsCostMoreThanColumnCrossings)
{
    Rig col_rig;
    {
        const VertexId a =
            col_rig.add("a", ResourceVector(100, 100, 0, 0, 0), 0, 0);
        const VertexId b =
            col_rig.add("b", ResourceVector(100, 100, 0, 0, 0), 1, 0);
        col_rig.g.addEdge(a, b, 64);
    }
    Rig row_rig;
    {
        const VertexId a =
            row_rig.add("a", ResourceVector(100, 100, 0, 0, 0), 0, 0);
        const VertexId b =
            row_rig.add("b", ResourceVector(100, 100, 0, 0, 0), 0, 1);
        row_rig.g.addEdge(a, b, 64);
    }
    TimingResult col_t = col_rig.timing(col_rig.plan(0));
    TimingResult row_t = row_rig.timing(row_rig.plan(0));
    EXPECT_GT(col_t.designFmax, row_t.designFmax);
}

TEST(Timing, HbmPressureLowersMemoryRowClock)
{
    Rig r;
    Vertex v;
    v.name = "reader";
    // Enough logic that the added HBM pressure crosses the
    // congestion knee.
    v.area = makeU55C().slots()[0].capacity * 0.45;
    ASSERT_GT(0.45 + kHbmPressure, kCongestionKnee);
    v.work.memChannels = 32;
    r.g.addVertex(v);
    r.part.deviceOf.push_back(0);
    r.place.slotOf.push_back(SlotCoord{0, 0}); // memory row

    HbmBinding binding;
    binding.channelsOf.assign(1, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 1));

    TimingResult without = r.timing(r.plan(2), {340.0e6});
    TimingResult with_pressure =
        r.timing(r.plan(2), {340.0e6}, &binding);
    ASSERT_TRUE(without.allRoutable && with_pressure.allRoutable);
    EXPECT_GT(without.designFmax, with_pressure.designFmax);
}

TEST(Timing, HbmPressureDoesNotAffectUpperRows)
{
    Rig r;
    Vertex v;
    v.name = "compute";
    v.area = ResourceVector(50000, 80000, 0, 0, 0);
    r.g.addVertex(v);
    r.part.deviceOf.push_back(0);
    r.place.slotOf.push_back(SlotCoord{0, 2}); // top row

    HbmBinding binding;
    binding.channelsOf.assign(1, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 2));

    TimingResult without = r.timing(r.plan(2), {340.0e6});
    TimingResult with_pressure =
        r.timing(r.plan(2), {340.0e6}, &binding);
    EXPECT_DOUBLE_EQ(without.designFmax, with_pressure.designFmax);
}

TEST(Timing, DesignClockIsSlowestDevice)
{
    Rig r;
    r.cluster = makePaperTestbed(2);
    r.add("fast", ResourceVector(1000, 1000, 0, 0, 0), 0, 0, 0);
    const ResourceVector slot_cap = makeU55C().slots()[0].capacity;
    r.add("congested", slot_cap * 0.9, 0, 0, 1);
    TimingResult t = r.timing(r.plan(2), {340.0e6, 340.0e6});
    ASSERT_TRUE(t.allRoutable);
    EXPECT_LT(t.perDevice[1].fmax, t.perDevice[0].fmax);
    EXPECT_DOUBLE_EQ(t.designFmax, t.perDevice[1].fmax);
}

} // namespace
} // namespace tapacs
