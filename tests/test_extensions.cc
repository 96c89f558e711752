/**
 * @file
 * Tests for the extension features: simulation timeline recording,
 * the extended device catalog, and link-model physicality.
 */

#include <gtest/gtest.h>

#include "apps/stencil.hh"
#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "sim/dataflow_sim.hh"
#include "sim/report.hh"

namespace tapacs
{
namespace
{

TEST(Timeline, RecordsOneEntryPerFiring)
{
    TaskGraph g("tl");
    WorkProfile w;
    w.computeOps = 3.0e6;
    w.opsPerCycle = 1.0;
    w.numBlocks = 5;
    g.addVertex("a", ResourceVector{}, w);
    g.addVertex("b", ResourceVector{}, w);
    g.addEdge(0, 1, 64);

    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0, 0};
    HbmBinding binding;
    binding.channelsOf.assign(2, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.edges.assign(1, EdgePipelining{});
    plan.addedAreaPerDevice.assign(1, ResourceVector{});

    sim::SimOptions opt;
    opt.recordTimeline = true;
    sim::SimResult r = sim::simulate(g, cluster, part, binding, plan,
                                     {300.0e6}, opt);
    ASSERT_EQ(r.timeline.size(), 10u); // 2 tasks x 5 blocks

    // Entries are sorted by start time and internally monotone.
    Seconds prev = -1.0;
    for (const auto &f : r.timeline) {
        EXPECT_GE(f.start, prev);
        prev = f.start;
        EXPECT_LE(f.start, f.readDone);
        EXPECT_LE(f.readDone, f.computeDone);
        EXPECT_LE(f.computeDone, f.writeDone);
        EXPECT_LE(f.writeDone, r.makespan + 1e-12);
    }

    // Off by default.
    sim::SimResult quiet =
        sim::simulate(g, cluster, part, binding, plan, {300.0e6});
    EXPECT_TRUE(quiet.timeline.empty());
}

TEST(Timeline, CsvHasHeaderAndRows)
{
    TaskGraph g("tl");
    WorkProfile w;
    w.computeOps = 3.0e6;
    w.numBlocks = 2;
    g.addVertex("solo", ResourceVector{}, w);
    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0};
    HbmBinding binding;
    binding.channelsOf.assign(1, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.addedAreaPerDevice.assign(1, ResourceVector{});

    sim::SimOptions opt;
    opt.recordTimeline = true;
    sim::SimResult r = sim::simulate(g, cluster, part, binding, plan,
                                     {300.0e6}, opt);
    const std::string csv = sim::timelineCsv(g, r);
    EXPECT_EQ(csv.rfind("task,block,start", 0), 0u);
    EXPECT_NE(csv.find("solo,0,"), std::string::npos);
    EXPECT_NE(csv.find("solo,1,"), std::string::npos);
}

TEST(DeviceCatalog, U280Shape)
{
    const DeviceModel dev = makeU280();
    EXPECT_EQ(dev.numDies(), 3);
    EXPECT_EQ(dev.memory().channels, 32);
    EXPECT_EQ(dev.memory().capacity, 8_GiB);
    EXPECT_GT(dev.totalResources()[ResourceKind::Lut],
              makeU55C().totalResources()[ResourceKind::Lut]);
}

TEST(DeviceCatalog, LookupByName)
{
    EXPECT_EQ(makeDeviceByName("U55C").value().name(), "U55C");
    EXPECT_EQ(makeDeviceByName("u250").value().name(), "U250");
    EXPECT_EQ(makeDeviceByName("U280").value().name(), "U280");
}

TEST(DeviceCatalog, UnknownNameIsInvalidInput)
{
    const StatusOr<DeviceModel> dev = makeDeviceByName("Stratix");
    ASSERT_FALSE(dev.ok());
    EXPECT_EQ(dev.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(dev.status().message().find("unknown device"),
              std::string::npos);
}

TEST(DeviceCatalog, CompileOnU280Cluster)
{
    // The whole flow works against a different catalog board.
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    Cluster cluster(makeU280(), Topology(TopologyKind::Ring, 2));
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    CompileResult r = compileProgram(app.graph, app.tasks, cluster, opt);
    EXPECT_TRUE(r.routable) << r.failureReason;
}

TEST(CrossNodeSerialization, HostStagingSerializesBlocks)
{
    // Two tasks on different nodes exchanging 4 blocks: the staged
    // path must serialize (makespan ~= 4 x per-block path time), not
    // pipeline down to ~1x.
    TaskGraph g("xnode");
    WorkProfile w;
    w.computeOps = 300.0; // negligible
    w.numBlocks = 4;
    g.addVertex("src", ResourceVector{}, w);
    g.addVertex("dst", ResourceVector{}, w);
    // 4 blocks x 12.5 MB = 50 MB total; 12.5 MB takes ~10 ms on the
    // 10 Gbps leg alone.
    g.addEdge(0, 1, 64, 50.0e6);

    Cluster cluster = makePaperTestbed(8);
    DevicePartition part;
    part.deviceOf = {0, 4};
    HbmBinding binding;
    binding.channelsOf.assign(2, {});
    binding.usersPerChannel.assign(8, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.edges.assign(1, EdgePipelining{});
    plan.addedAreaPerDevice.assign(8, ResourceVector{});

    sim::SimResult r = sim::simulate(g, cluster, part, binding, plan,
                                     std::vector<Hertz>(8, 300.0e6));
    const Seconds per_block =
        cluster.hostLink().transferTime(12.5e6) * 2 +
        cluster.interNodeLink().transferTime(12.5e6);
    EXPECT_NEAR(r.makespan, 4.0 * per_block, per_block * 0.1);
}

TEST(BottleneckReport, ActivityAccountsBusyAndStall)
{
    // Chain of two tasks: downstream stalls during the upstream's
    // first block.
    TaskGraph g("rep");
    WorkProfile w;
    w.computeOps = 3.0e8; // 1 s at 1 op/cycle, 300 MHz
    w.opsPerCycle = 1.0;
    w.numBlocks = 4;
    g.addVertex("up", ResourceVector{}, w);
    g.addVertex("down", ResourceVector{}, w);
    g.addEdge(0, 1, 64);

    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0, 0};
    HbmBinding binding;
    binding.channelsOf.assign(2, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.edges.assign(1, EdgePipelining{});
    plan.addedAreaPerDevice.assign(1, ResourceVector{});

    sim::SimOptions opt;
    opt.recordTimeline = true;
    sim::SimResult r = sim::simulate(g, cluster, part, binding, plan,
                                     {300.0e6}, opt);
    StatusOr<std::vector<sim::TaskActivity>> analyzed =
        sim::analyzeActivity(g, r);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().toString();
    const std::vector<sim::TaskActivity> &acts = analyzed.value();
    ASSERT_EQ(acts.size(), 2u);
    for (const auto &a : acts) {
        EXPECT_NEAR(a.computeBusy, 1.0, 1e-6);
        EXPECT_DOUBLE_EQ(a.memoryBusy, 0.0);
    }
    // The pipeline is saturated: both tasks ~fully busy over their
    // own spans.
    EXPECT_LT(acts[0].stallFraction(), 0.01);
    EXPECT_LT(acts[1].stallFraction(), 0.01);

    const StatusOr<std::string> rendered = sim::bottleneckReport(g, r);
    ASSERT_TRUE(rendered.ok());
    const std::string &report = rendered.value();
    EXPECT_NE(report.find("up"), std::string::npos);
    EXPECT_NE(report.find("down"), std::string::npos);
    EXPECT_NE(report.find("Bottleneck report"), std::string::npos);
}

TEST(BottleneckReport, RequiresTimeline)
{
    TaskGraph g("rep2");
    WorkProfile w;
    w.computeOps = 100.0;
    g.addVertex("t", ResourceVector{}, w);
    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0};
    HbmBinding binding;
    binding.channelsOf.assign(1, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.addedAreaPerDevice.assign(1, ResourceVector{});
    sim::SimResult r =
        sim::simulate(g, cluster, part, binding, plan, {300.0e6});
    const StatusOr<std::vector<sim::TaskActivity>> acts =
        sim::analyzeActivity(g, r);
    ASSERT_FALSE(acts.ok());
    EXPECT_EQ(acts.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(acts.status().message().find("recordTimeline"),
              std::string::npos);
    const StatusOr<std::string> report = sim::bottleneckReport(g, r);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidInput);
}

} // namespace
} // namespace tapacs
