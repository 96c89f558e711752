/**
 * @file
 * Tests for the HLS stand-in: the resource estimator and the parallel
 * synthesis driver.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "hls/estimator.hh"
#include "hls/synthesis.hh"

namespace tapacs::hls
{
namespace
{

TEST(Estimator, EmptyTaskHasBaseCostOnly)
{
    TaskIr t;
    t.name = "empty";
    t.fsmStates = 4;
    const SynthesisResult r = estimateTask(t);
    EXPECT_GT(r.area[ResourceKind::Lut], 0.0);
    EXPECT_GT(r.area[ResourceKind::Ff], 0.0);
    EXPECT_DOUBLE_EQ(r.area[ResourceKind::Dsp], 0.0);
    EXPECT_DOUBLE_EQ(r.area[ResourceKind::Bram], 0.0);
    EXPECT_EQ(r.taskName, "empty");
}

TEST(Estimator, FpUnitsConsumeDsps)
{
    TaskIr t;
    t.name = "fp";
    t.fp32AddUnits = 4; // 2 DSP each
    t.fp32MulUnits = 2; // 3 DSP each
    const SynthesisResult r = estimateTask(t);
    EXPECT_DOUBLE_EQ(r.area[ResourceKind::Dsp], 4 * 2 + 2 * 3);
}

TEST(Estimator, AreaIsMonotoneInUnits)
{
    TaskIr small;
    small.name = "s";
    small.fp32AddUnits = 2;
    TaskIr big = small;
    big.fp32AddUnits = 8;
    big.intAluUnits = 4;
    const auto rs = estimateTask(small).area;
    const auto rb = estimateTask(big).area;
    EXPECT_TRUE(rs.fitsWithin(rb));
    EXPECT_LT(rs[ResourceKind::Lut], rb[ResourceKind::Lut]);
}

TEST(Estimator, BufferGoesToBramByDefault)
{
    TaskIr t;
    t.name = "buf";
    t.localBufferBytes = 32_KiB;
    t.bufferBanks = 1;
    const SynthesisResult r = estimateTask(t);
    EXPECT_GT(r.area[ResourceKind::Bram], 0.0);
    EXPECT_DOUBLE_EQ(r.area[ResourceKind::Uram], 0.0);
}

TEST(Estimator, LargeBufferPrefersUram)
{
    TaskIr t;
    t.name = "ubuf";
    t.localBufferBytes = 256_KiB;
    t.preferUram = true;
    const SynthesisResult r = estimateTask(t);
    EXPECT_GT(r.area[ResourceKind::Uram], 0.0);
    EXPECT_DOUBLE_EQ(r.area[ResourceKind::Bram], 0.0);
}

TEST(Estimator, SmallBufferIgnoresUramPreference)
{
    TaskIr t;
    t.name = "small";
    t.localBufferBytes = 8_KiB;
    t.preferUram = true;
    const SynthesisResult r = estimateTask(t);
    EXPECT_DOUBLE_EQ(r.area[ResourceKind::Uram], 0.0);
    EXPECT_GT(r.area[ResourceKind::Bram], 0.0);
}

TEST(Estimator, BankingRoundsUpPerBank)
{
    // 10 KiB in 8 banks: each bank is 1.25 KiB -> 1 BRAM18 each.
    EXPECT_DOUBLE_EQ(bramBlocksFor(10_KiB, 8), 8.0);
    // Same bytes unbanked: ceil(10240 / 2304) = 5.
    EXPECT_DOUBLE_EQ(bramBlocksFor(10_KiB, 1), 5.0);
    EXPECT_DOUBLE_EQ(bramBlocksFor(0, 4), 0.0);
    EXPECT_DOUBLE_EQ(uramBlocksFor(72_KiB, 1), 2.0);
}

TEST(Estimator, MemPortCostScalesWithWidthAndBuffer)
{
    TaskIr narrow;
    narrow.name = "n";
    narrow.addMemPort("m0", 256, 32_KiB);
    TaskIr wide;
    wide.name = "w";
    wide.addMemPort("m0", 512, 128_KiB);
    const auto rn = estimateTask(narrow).area;
    const auto rw = estimateTask(wide).area;
    EXPECT_LT(rn[ResourceKind::Lut], rw[ResourceKind::Lut]);
    // A 32 KiB burst buffer stays in BRAM (~15 blocks); the 128 KiB
    // buffer of the KNN scaled configuration is bound to URAM so the
    // HBM die is not exhausted.
    EXPECT_NEAR(rn[ResourceKind::Bram], 15.0, 1.0);
    EXPECT_DOUBLE_EQ(rn[ResourceKind::Uram], 0.0);
    EXPECT_DOUBLE_EQ(rw[ResourceKind::Uram], 4.0);
    EXPECT_LT(rw[ResourceKind::Bram], rn[ResourceKind::Bram]);
}

TEST(Estimator, FmaxCeilingDropsWithComplexity)
{
    TaskIr simple;
    simple.name = "s";
    simple.intAluUnits = 1;
    TaskIr complex_task;
    complex_task.name = "c";
    complex_task.fp32AddUnits = 64;
    complex_task.fp32MulUnits = 64;
    complex_task.addMemPort("m0", 512, 8_KiB);
    EXPECT_GT(estimateTask(simple).fmaxCeiling,
              estimateTask(complex_task).fmaxCeiling);
    // Floor at 200 MHz.
    TaskIr monster;
    monster.name = "m";
    monster.fp32AddUnits = 100000;
    EXPECT_GE(estimateTask(monster).fmaxCeiling, 200.0e6);
}

TEST(Estimator, PipelineDepthGrowsWithFpChain)
{
    TaskIr no_fp;
    no_fp.name = "i";
    no_fp.intAluUnits = 4;
    TaskIr fp;
    fp.name = "f";
    fp.fp32AddUnits = 8;
    EXPECT_LT(estimateTask(no_fp).pipelineDepth,
              estimateTask(fp).pipelineDepth);
}

TEST(Synthesis, ParallelMatchesSerial)
{
    std::vector<TaskIr> tasks;
    for (int i = 0; i < 20; ++i) {
        TaskIr t;
        t.name = strprintf("t%d", i);
        t.fp32AddUnits = i;
        t.localBufferBytes = static_cast<Bytes>(i) * 1024;
        tasks.push_back(t);
    }
    const ProgramSynthesis serial = synthesizeAll(tasks, 1);
    const ProgramSynthesis parallel = synthesizeAll(tasks, 4);
    ASSERT_EQ(serial.tasks.size(), parallel.tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(serial.tasks[i].taskName, parallel.tasks[i].taskName);
        EXPECT_TRUE(serial.tasks[i].area == parallel.tasks[i].area);
    }
}

TEST(Synthesis, FindByName)
{
    std::vector<TaskIr> tasks(2);
    tasks[0].name = "alpha";
    tasks[1].name = "beta";
    const ProgramSynthesis synth = synthesizeAll(tasks);
    EXPECT_NE(synth.find("alpha"), nullptr);
    EXPECT_NE(synth.find("beta"), nullptr);
    EXPECT_EQ(synth.find("gamma"), nullptr);
}

TEST(Synthesis, ApplyStampsAreasOntoGraph)
{
    TaskGraph g("apply");
    g.addVertex("alpha", ResourceVector{});
    g.addVertex("beta", ResourceVector{});
    std::vector<TaskIr> tasks(2);
    tasks[0].name = "alpha";
    tasks[0].fp32AddUnits = 4;
    tasks[1].name = "beta";
    const ProgramSynthesis synth = synthesizeAll(tasks);
    applySynthesis(g, synth);
    EXPECT_GT(g.vertex(0).area[ResourceKind::Dsp], 0.0);
    EXPECT_TRUE(g.vertex(0).area == synth.tasks[0].area);
}

TEST(SynthesisDeath, ApplyRejectsUnknownTask)
{
    TaskGraph g("missing");
    g.addVertex("alpha", ResourceVector{});
    std::vector<TaskIr> tasks(1);
    tasks[0].name = "not-in-graph";
    const ProgramSynthesis synth = synthesizeAll(tasks);
    EXPECT_DEATH(applySynthesis(g, synth), "no vertex");
}

} // namespace
} // namespace tapacs::hls
