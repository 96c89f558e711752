/**
 * @file
 * Tests for task-graph serialization and floorplan constraint
 * emission (the step-7 artifacts).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "apps/synth.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/constraints.hh"
#include "graph/serialize.hh"
#include "hls/synthesis.hh"

namespace tapacs
{
namespace
{

using namespace std::string_literals;

// ---- Reference codec ------------------------------------------------------
//
// A serializer on printf's "%.17g" and a parser on istringstream and
// operator>>, kept as oracles: the library's cursor codec must write
// the same bytes and accept the same language with the same errors.

std::string
referenceSerialize(const TaskGraph &g)
{
    std::string out = strprintf("graph %s\n", g.name().c_str());
    for (const Vertex &v : g.vertices()) {
        out += strprintf(
            "vertex %s %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g "
            "%.17g %d %d %d\n",
            v.name.c_str(), v.area[ResourceKind::Lut],
            v.area[ResourceKind::Ff], v.area[ResourceKind::Bram],
            v.area[ResourceKind::Dsp], v.area[ResourceKind::Uram],
            v.work.computeOps, v.work.opsPerCycle, v.work.memReadBytes,
            v.work.memWriteBytes, v.work.memPortWidthBits,
            v.work.memChannels, v.work.numBlocks);
    }
    for (const Edge &e : g.edges()) {
        out += strprintf("edge %d %d %d %.17g %d %d\n", e.src, e.dst,
                         e.widthBits, e.totalBytes, e.depth,
                         e.initialTokens);
    }
    return out;
}

Status
referenceParse(const std::string &text, TaskGraph *out)
{
    TaskGraph g;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kind;
        ls >> kind;
        if (kind == "graph") {
            std::string name;
            ls >> name;
            g.setName(name);
        } else if (kind == "vertex") {
            Vertex v;
            double lut, ff, bram, dsp, uram;
            ls >> v.name >> lut >> ff >> bram >> dsp >> uram >>
                v.work.computeOps >> v.work.opsPerCycle >>
                v.work.memReadBytes >> v.work.memWriteBytes >>
                v.work.memPortWidthBits >> v.work.memChannels >>
                v.work.numBlocks;
            if (ls.fail())
                return Status::invalidInput(
                    "task-graph parse error at line %d: bad vertex",
                    lineno);
            v.area = ResourceVector(lut, ff, bram, dsp, uram);
            g.addVertex(std::move(v));
        } else if (kind == "edge") {
            int src, dst, width, depth, init;
            double bytes;
            ls >> src >> dst >> width >> bytes >> depth >> init;
            if (ls.fail())
                return Status::invalidInput(
                    "task-graph parse error at line %d: bad edge",
                    lineno);
            if (src < 0 || src >= g.numVertices() || dst < 0 ||
                dst >= g.numVertices()) {
                return Status::invalidInput(
                    "task-graph parse error at line %d: edge refers "
                    "to missing vertex",
                    lineno);
            }
            if (width <= 0 || depth < 1 || bytes < 0.0)
                return Status::invalidInput(
                    "task-graph parse error at line %d: bad edge "
                    "parameters",
                    lineno);
            const EdgeId e = g.addEdge(src, dst, width, bytes, depth);
            g.edge(e).initialTokens = init;
        } else {
            return Status::invalidInput(
                "task-graph parse error at line %d: unknown record "
                "'%s'",
                lineno, kind.c_str());
        }
    }
    *out = std::move(g);
    return Status();
}

/**
 * Parses @p text with both codecs and expects the same status and
 * message and, on success, the same graph (compared through both
 * serializers, which must also agree).
 */
void
expectSameParse(const std::string &text)
{
    TaskGraph want, got;
    const Status ws = referenceParse(text, &want);
    const Status gs = tryParseTaskGraph(text, &got);
    ASSERT_EQ(gs.ok(), ws.ok()) << gs.message() << " vs " << ws.message();
    ASSERT_EQ(gs.message(), ws.message());
    if (!ws.ok())
        return;
    const std::string wantText = referenceSerialize(want);
    ASSERT_EQ(referenceSerialize(got), wantText);
    ASSERT_EQ(serializeTaskGraph(got), wantText);
}

/** One vertex line whose first area field (LUT) is @p lut. */
std::string
vertexWithLut(const std::string &lut)
{
    return "vertex t " + lut + " 2 3 4 5 6 1 0 0 512 0 1\n";
}

/** An edge between two vertices whose width field is @p width. */
std::string
edgeWithWidth(const std::string &width)
{
    return "vertex a 1 1 0 0 0 1 1 0 0 512 0 1\n"
           "vertex b 1 1 0 0 0 1 1 0 0 512 0 1\n"
           "edge 0 1 " +
           width + " 1024 2 0\n";
}

TaskGraph
sampleGraph()
{
    TaskGraph g("sample");
    Vertex a;
    a.name = "reader";
    a.area = ResourceVector(1234, 5678, 9, 10, 1);
    a.work.computeOps = 1.5e9;
    a.work.opsPerCycle = 16.0;
    a.work.memReadBytes = 6.4e7;
    a.work.memPortWidthBits = 512;
    a.work.memChannels = 4;
    a.work.numBlocks = 32;
    g.addVertex(a);
    g.addVertex("worker", ResourceVector(10, 20, 0, 2, 0));
    const EdgeId e = g.addEdge(0, 1, 256, 1.0e6, 4);
    g.edge(e).initialTokens = 2;
    return g;
}

TEST(Serialize, RoundTripExact)
{
    TaskGraph g = sampleGraph();
    const std::string text = serializeTaskGraph(g);
    TaskGraph back = parseTaskGraph(text);

    ASSERT_EQ(back.numVertices(), g.numVertices());
    ASSERT_EQ(back.numEdges(), g.numEdges());
    EXPECT_EQ(back.name(), g.name());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const Vertex &x = g.vertex(v);
        const Vertex &y = back.vertex(v);
        EXPECT_EQ(x.name, y.name);
        EXPECT_TRUE(x.area == y.area);
        EXPECT_DOUBLE_EQ(x.work.computeOps, y.work.computeOps);
        EXPECT_DOUBLE_EQ(x.work.memReadBytes, y.work.memReadBytes);
        EXPECT_EQ(x.work.memChannels, y.work.memChannels);
        EXPECT_EQ(x.work.numBlocks, y.work.numBlocks);
    }
    const Edge &e = back.edge(0);
    EXPECT_EQ(e.widthBits, 256);
    EXPECT_DOUBLE_EQ(e.totalBytes, 1.0e6);
    EXPECT_EQ(e.depth, 4);
    EXPECT_EQ(e.initialTokens, 2);
}

TEST(Serialize, DoubleRoundTripIsStable)
{
    TaskGraph g = sampleGraph();
    const std::string once = serializeTaskGraph(g);
    const std::string twice = serializeTaskGraph(parseTaskGraph(once));
    EXPECT_EQ(once, twice);
}

TEST(Serialize, RealAppRoundTrips)
{
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    const std::string text = serializeTaskGraph(app.graph);
    TaskGraph back = parseTaskGraph(text);
    EXPECT_EQ(back.numVertices(), app.graph.numVertices());
    EXPECT_EQ(back.numEdges(), app.graph.numEdges());
    back.validate();
    EXPECT_EQ(serializeTaskGraph(back), text);
}

TEST(Serialize, CommentsAndBlankLinesIgnored)
{
    TaskGraph back = parseTaskGraph(
        "# a comment\n\ngraph g\nvertex t 1 2 3 4 5 0 1 0 0 512 0 1\n");
    EXPECT_EQ(back.numVertices(), 1);
    EXPECT_EQ(back.vertex(0).name, "t");
}

/** The paper designs at F1-F8 with synthesized areas, plus synthetic
 *  graphs at cluster scale. */
std::vector<std::pair<std::string, TaskGraph>>
corpus()
{
    std::vector<std::pair<std::string, TaskGraph>> out;
    for (int f = 1; f <= 8; ++f) {
        std::vector<std::pair<std::string, apps::AppDesign>> apps;
        apps.emplace_back(
            "stencil",
            apps::buildStencil(apps::StencilConfig::scaled(64, f)));
        apps.emplace_back("pagerank",
                          apps::buildPageRank(apps::PageRankConfig::scaled(
                              apps::pagerankDatasets()[0], f)));
        apps.emplace_back(
            "knn",
            apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, f)));
        apps.emplace_back("cnn", apps::buildCnn(apps::CnnConfig::scaled(f)));
        for (auto &[name, app] : apps) {
            hls::applySynthesis(app.graph, hls::synthesizeAll(app.tasks));
            out.emplace_back(strprintf("%s-F%d", name.c_str(), f),
                             std::move(app.graph));
        }
    }
    for (int n : {5000, 20000}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            out.emplace_back(
                strprintf("synth-%d-s%d", n, static_cast<int>(seed)),
                apps::buildSynthetic(apps::SynthConfig::scaled(n, seed))
                    .graph);
        }
    }
    return out;
}

TEST(SerializeOracle, SameBytesAndRoundTripOnEveryDesign)
{
    for (const auto &[name, g] : corpus()) {
        SCOPED_TRACE(name);
        const std::string text = serializeTaskGraph(g);
        ASSERT_EQ(text, referenceSerialize(g));
        TaskGraph back;
        ASSERT_TRUE(tryParseTaskGraph(text, &back).ok());
        EXPECT_EQ(serializeTaskGraph(back), text);
        TaskGraph oracle;
        ASSERT_TRUE(referenceParse(text, &oracle).ok());
        EXPECT_EQ(serializeTaskGraph(oracle), text);
    }
}

TEST(SerializeOracle, NamedEdgeCases)
{
    const std::string zeros(400, '0');
    const std::vector<std::string> numbers = {
        "+5", "+-5", "-+5", "- 5", "inf", "-inf", "nan", "NaN",
        "infinity", "0x1p3", "1e", "1E+", "1.5e-", "1e5e", "1e-400",
        "-1e-400", "1e400", "-1e400", "2e-324", "3e-324", "1e-310",
        "1.7976931348623159e308", ".5", "5.", ".", "-.", "+.5", "1.2.3",
        "007", "1-2", "1a", "0." + zeros + "1", "1" + zeros + "e-100",
        "0." + zeros + "1e+30", "1" + zeros, "1e99999999999999999999",
        "1e-99999999999999999999", "1\0"s};
    for (const std::string &n : numbers) {
        SCOPED_TRACE(n);
        expectSameParse(vertexWithLut(n));
        expectSameParse(edgeWithWidth(n));
    }
    const std::vector<std::string> ints = {
        "2147483647", "2147483648", "-2147483648", "-2147483649",
        "99999999999999999999", "+32", "1.5", "32x", "0x20"};
    for (const std::string &n : ints) {
        SCOPED_TRACE(n);
        expectSameParse(edgeWithWidth(n));
    }
    const std::vector<std::string> texts = {
        "graph g\r\nvertex t 1 2 3 4 5 6 1 0 0 512 0 1\r\n",
        "graph g\n   \nvertex t 1 2 3 4 5 6 1 0 0 512 0 1\n",
        "graph g\n\t\r\n",
        "graph g\n  # indented comment\n",
        "graph g\n#comment\n\n",
        "graph g\nvertex t 1 2 3 4 5 6 1 0 0 512 0 1",
        "graph g extra fields\nvertex t 1 2 3 4 5 6 1 0 0 512 0 1 9 9\n",
        "graph\n",
        "",
        "\n\n",
        "vertex\n",
        "graph a\0b\nvertex t\0u 1 2 3 4 5 6 1 0 0 512 0 1\n"s,
        "gr\0aph g\n"s,
        "\vgraph\fg\n",
    };
    for (const std::string &t : texts) {
        SCOPED_TRACE(t);
        expectSameParse(t);
    }
}

TEST(SerializeOracle, MutationFuzzMatchesReference)
{
    // Bytes the mutations draw from: number syntax, the letters of
    // hex, inf and nan, comment marks and every kind of separator.
    const std::string alphabet = "0123456789+-.eExinfa# \t\r\0"s;
    std::vector<std::string> bases = {serializeTaskGraph(sampleGraph())};
    bases.push_back(serializeTaskGraph(
        apps::buildSynthetic(apps::SynthConfig::scaled(12, 5)).graph));
    Rng rng(0x5e71a112e);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(0, n - 1));
    };
    const auto randomChar = [&] { return alphabet[pick(alphabet.size())]; };
    constexpr int kCases = 12000;
    for (int c = 0; c < kCases; ++c) {
        const std::string &base = bases[c % bases.size()];
        std::vector<std::string> lines;
        std::istringstream in(base);
        for (std::string l; std::getline(in, l);)
            lines.push_back(l);
        std::string &line = lines[pick(lines.size())];
        const int edits = 1 + static_cast<int>(pick(3));
        for (int k = 0; k < edits; ++k) {
            const std::size_t at = pick(line.size() + 1);
            switch (pick(4)) {
            case 0: // insert a byte
                line.insert(line.begin() + at, randomChar());
                break;
            case 1: // overwrite a byte
                if (at < line.size())
                    line[at] = randomChar();
                break;
            case 2: // truncate
                line.resize(at);
                break;
            default: { // replace the field under `at` with a short token
                std::size_t b = std::min(at, line.size());
                while (b > 0 && line[b - 1] != ' ')
                    --b;
                std::size_t e = line.find(' ', b);
                if (e == std::string::npos)
                    e = line.size();
                std::string token;
                for (std::size_t n = 1 + pick(6); n > 0; --n)
                    token += randomChar();
                line.replace(b, e - b, token);
            }
            }
        }
        std::string text;
        for (const std::string &l : lines)
            text += l + "\n";
        if (c % 7 == 0)
            text.pop_back(); // no final newline
        SCOPED_TRACE(testing::Message() << "case " << c << ": " << line);
        expectSameParse(text);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

TEST(SerializeDeath, MalformedVertexRejected)
{
    EXPECT_DEATH(parseTaskGraph("vertex broken 1 2\n"), "line 1");
}

TEST(SerializeDeath, DanglingEdgeRejected)
{
    EXPECT_DEATH(parseTaskGraph("graph g\nedge 0 1 32 0 2 0\n"),
                 "missing vertex");
}

TEST(SerializeDeath, UnknownRecordRejected)
{
    EXPECT_DEATH(parseTaskGraph("frobnicate\n"), "unknown record");
}

// ---- Constraint emission -------------------------------------------------

struct CompiledFixture
{
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    Cluster cluster = makePaperTestbed(2);
    CompileResult result;

    CompiledFixture()
    {
        CompileOptions opt;
        opt.mode = CompileMode::TapaCs;
        opt.numFpgas = 2;
        result = compileProgram(app.graph, app.tasks, cluster, opt);
    }
};

TEST(Constraints, TclPinsEveryTaskOfTheDevice)
{
    CompiledFixture f;
    ASSERT_TRUE(f.result.routable);
    const std::string tcl =
        emitConstraintsTcl(f.app.graph, f.cluster, f.result, 0);
    // Every pblock exists.
    EXPECT_NE(tcl.find("create_pblock pblock_X0Y0"), std::string::npos);
    EXPECT_NE(tcl.find("create_pblock pblock_X1Y2"), std::string::npos);
    // Every device-0 task is pinned; no device-1 task leaks in.
    for (VertexId v = 0; v < f.app.graph.numVertices(); ++v) {
        const std::string needle =
            "get_cells -hier " + f.app.graph.vertex(v).name + "]";
        const bool present = tcl.find(needle) != std::string::npos;
        EXPECT_EQ(present, f.result.partition.deviceOf[v] == 0)
            << f.app.graph.vertex(v).name;
    }
}

TEST(Constraints, TclBindsHbmChannels)
{
    CompiledFixture f;
    ASSERT_TRUE(f.result.routable);
    const std::string tcl =
        emitConstraintsTcl(f.app.graph, f.cluster, f.result, 0);
    EXPECT_NE(tcl.find(":HBM["), std::string::npos);
}

TEST(Constraints, ManifestListsDevicesAndStreams)
{
    CompiledFixture f;
    ASSERT_TRUE(f.result.routable);
    const std::string manifest =
        emitClusterManifest(f.app.graph, f.cluster, f.result);
    EXPECT_NE(manifest.find("cluster devices=2"), std::string::npos);
    EXPECT_NE(manifest.find("topology=ring"), std::string::npos);
    EXPECT_NE(manifest.find("device 0"), std::string::npos);
    EXPECT_NE(manifest.find("device 1"), std::string::npos);
    // The stencil F2 cut produces at least one AlveoLink stream.
    EXPECT_NE(manifest.find("via=alveolink"), std::string::npos);
    EXPECT_EQ(manifest.find("via=host-mpi"), std::string::npos);
}

TEST(Constraints, CrossNodeStreamsMarkedHostMpi)
{
    apps::AppDesign app =
        apps::buildPageRank(apps::PageRankConfig::scaled(
            apps::pagerankDataset("soc-Slashdot0811"), 8));
    Cluster cluster = makePaperTestbed(8);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 8;
    CompileResult r = compileProgram(app.graph, app.tasks, cluster, opt);
    ASSERT_TRUE(r.routable) << r.failureReason;
    const std::string manifest =
        emitClusterManifest(app.graph, cluster, r);
    EXPECT_NE(manifest.find("nodes=2"), std::string::npos);
    EXPECT_NE(manifest.find("via=host-mpi"), std::string::npos);
}

} // namespace
} // namespace tapacs
