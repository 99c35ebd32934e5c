/**
 * @file
 * Workload-model tests: graph construction, kernel trace properties
 * (footprints, write ratios, irregularity ordering), registry coverage
 * of the paper's 11-benchmark suite, and determinism.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "workloads/registry.hpp"

using namespace rmcc;
using namespace rmcc::wl;

TEST(Graph, PowerLawShape)
{
    const Graph g = Graph::powerLaw(10000, 80000, 0.8, 1);
    EXPECT_EQ(g.num_vertices, 10000u);
    EXPECT_EQ(g.numEdges(), 80000u);
    EXPECT_EQ(g.offsets.front(), 0u);
    EXPECT_EQ(g.offsets.back(), 80000u);
    // Degree skew: the max degree far exceeds the mean.
    std::uint64_t max_deg = 0;
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        max_deg = std::max(max_deg, g.degree(v));
    EXPECT_GT(max_deg, 8u * (80000 / 10000));
}

TEST(Graph, DegreeCapBoundsHubs)
{
    const Graph g = Graph::powerLaw(10000, 80000, 0.8, 1);
    const std::uint64_t cap =
        std::max<std::uint64_t>(64, 64 * 80000 / 10000);
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        EXPECT_LE(g.degree(v), cap + 1);
}

TEST(Graph, HubsAreScatteredAcrossIdSpace)
{
    const Graph g = Graph::powerLaw(16384, 131072, 0.8, 2);
    // Collect the 32 highest-degree vertices; they must not cluster in a
    // contiguous id prefix (realistic graphs have scattered hub ids).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> deg;
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        deg.emplace_back(g.degree(v), v);
    std::sort(deg.rbegin(), deg.rend());
    std::uint64_t in_prefix = 0;
    for (int i = 0; i < 32; ++i)
        in_prefix += deg[static_cast<std::size_t>(i)].second < 1024;
    EXPECT_LT(in_prefix, 8u);
}

TEST(Graph, AdjacencySortedPerVertex)
{
    const Graph g = Graph::powerLaw(4096, 32768, 0.8, 3);
    for (std::uint64_t v = 0; v < g.num_vertices; ++v)
        EXPECT_TRUE(std::is_sorted(g.edges.begin() + g.offsets[v],
                                   g.edges.begin() + g.offsets[v + 1]));
}

TEST(Graph, DeterministicForSeed)
{
    const Graph a = Graph::powerLaw(1000, 8000, 0.8, 9);
    const Graph b = Graph::powerLaw(1000, 8000, 0.8, 9);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.offsets, b.offsets);
}

namespace
{

/** FNV-1a over offsets, then edges: the graph cache's header checksum. */
std::uint64_t
csrChecksum(const Graph &g)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    mix(g.offsets.data(), g.offsets.size() * sizeof(std::uint64_t));
    mix(g.edges.data(), g.edges.size() * sizeof(std::uint32_t));
    return h;
}

} // namespace

TEST(Graph, GoldenDigests)
{
    // Committed digests of the exact CSR bytes, so a faster build (or a
    // sampler change) cannot drift the graphs every graph figure runs
    // on.  A deliberate change to the generated graphs must update these
    // and the cache version together.

    // Power-of-two vertex count.
    EXPECT_EQ(csrChecksum(Graph::powerLaw(65536, 524288, 0.8, 7)),
              0x521d84aa0915a275ULL);

    // Non-power-of-two vertex count: nextBelow() may reject and draw
    // extra words, and the guide table is not a whole multiple.
    EXPECT_EQ(csrChecksum(Graph::powerLaw(12345, 987654, 0.8, 11)),
              0x6ac3e4aab9025104ULL);

    // Steep skew and few edges per vertex: the degree cap redirects the
    // draws of over a hundred hub sources to uniform fallbacks.
    const Graph capped = Graph::powerLaw(100000, 200000, 1.2, 5);
    EXPECT_EQ(csrChecksum(capped), 0xc69434218dc99dc4ULL);
    const std::uint64_t cap = 64 * 200000 / 100000;
    std::uint64_t at_cap = 0;
    for (std::uint64_t v = 0; v < capped.num_vertices; ++v)
        at_cap += capped.degree(v) >= cap;
    EXPECT_GT(at_cap, 100u);
}

TEST(Graph, RejectsBadVertexCounts)
{
    // Zero vertices has no valid id; above 2^32 the 32-bit edge ids
    // (and the id permutation's arithmetic) cannot represent them.
    EXPECT_THROW(Graph::powerLaw(0, 10, 0.8, 1), std::invalid_argument);
    EXPECT_THROW(Graph::powerLaw(std::uint64_t{UINT32_MAX} + 1, 10, 0.8, 1),
                 std::invalid_argument);
}

TEST(Graph, DiskCacheRoundTripsAndSurvivesCorruption)
{
    // Point the cache at a scratch dir so this test owns its files.
    // The filename pins the on-disk naming scheme (0.8 == 0x3fe99...9a).
    const std::string dir =
        ::testing::TempDir() + "rmcc_graph_cache_test";
    const std::string cache_file =
        dir + "/rmcc_graph_v1_3e8_1f40_3fe999999999999a_9.bin";
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);
    ASSERT_EQ(system(("rm -rf '" + dir + "'").c_str()), 0);

    // Nonexistent dir: save fails silently, build still succeeds.
    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    const Graph nodir = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(nodir.offsets, base.offsets);
    EXPECT_EQ(nodir.edges, base.edges);

    // Cold miss populates the cache; warm hit returns the same bytes.
    ASSERT_EQ(system(("mkdir -p '" + dir + "'").c_str()), 0);
    const Graph cold = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(cold.offsets, base.offsets);
    EXPECT_EQ(cold.edges, base.edges);
    ASSERT_TRUE(std::ifstream(cache_file).good())
        << "cache file not created where expected: " << cache_file;
    const Graph warm = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(warm.offsets, base.offsets);
    EXPECT_EQ(warm.edges, base.edges);

    // Corrupt the payload: the checksum must reject it and rebuild.
    {
        std::fstream f(cache_file,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(200);
        const int orig = f.get();
        ASSERT_NE(orig, EOF);
        f.seekp(200);
        f.put(static_cast<char>(orig ^ 0x7f));
    }
    const Graph rebuilt = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(rebuilt.offsets, base.offsets);
    EXPECT_EQ(rebuilt.edges, base.edges);

    // RMCC_GRAPH_CACHE=0 bypasses the cache entirely.
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE", "0", 1), 0);
    const Graph off = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(off.offsets, base.offsets);
    EXPECT_EQ(off.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE");
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Graph, DiskCacheRejectsTornWritesAndBadChecksums)
{
    const std::string dir =
        ::testing::TempDir() + "rmcc_graph_torn_test";
    const std::string cache_file =
        dir + "/rmcc_graph_v1_3e8_1f40_3fe999999999999a_9.bin";
    ASSERT_EQ(system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
              0);
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR", dir.c_str(), 1), 0);

    const Graph base = Graph::powerLaw(1000, 8000, 0.8, 9);
    (void)Graph::powerLawCached(1000, 8000, 0.8, 9); // populate
    std::ifstream probe(cache_file, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(probe.good());
    const std::streamoff full_size = probe.tellg();
    probe.close();

    // Torn write: a crash mid-save leaves the CSR payload cut short.
    // The loader must notice the missing bytes and rebuild.
    ASSERT_EQ(truncate(cache_file.c_str(),
                       static_cast<off_t>(full_size / 2)),
              0);
    const Graph torn = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(torn.offsets, base.offsets);
    EXPECT_EQ(torn.edges, base.edges);

    // The rebuild above re-populated the cache; now flip one byte of the
    // stored checksum (last header field) so header and payload disagree.
    {
        std::fstream f(cache_file,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        const std::streamoff checksum_off = 7 * 8; // 8th u64 field
        f.seekg(checksum_off);
        const int orig = f.get();
        ASSERT_NE(orig, EOF);
        f.seekp(checksum_off);
        f.put(static_cast<char>(orig ^ 0x01));
    }
    const Graph badsum = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(badsum.offsets, base.offsets);
    EXPECT_EQ(badsum.edges, base.edges);

    // A cache dir that is not a directory disables caching but must not
    // break graph construction.
    ASSERT_EQ(setenv("RMCC_GRAPH_CACHE_DIR",
                     (dir + "/no/such/dir").c_str(), 1),
              0);
    const Graph nodir = Graph::powerLawCached(1000, 8000, 0.8, 9);
    EXPECT_EQ(nodir.offsets, base.offsets);
    EXPECT_EQ(nodir.edges, base.edges);
    unsetenv("RMCC_GRAPH_CACHE_DIR");
}

TEST(Registry, PaperSuiteComplete)
{
    const auto &suite = workloadSuite();
    ASSERT_EQ(suite.size(), 11u);
    const char *expected[] = {
        "pageRank",      "graphColoring", "connectedComp", "degreeCentr",
        "DFS",           "BFS",           "triangleCount", "shortestPath",
        "canneal",       "omnetpp",       "mcf"};
    for (std::size_t i = 0; i < 11; ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
    EXPECT_NE(findWorkload("canneal"), nullptr);
    EXPECT_EQ(findWorkload("nosuch"), nullptr);
}

/** Each workload generates full traces with sane shapes. */
class WorkloadTraces : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadTraces, GeneratesFullDeterministicTrace)
{
    const Workload *w = findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    const auto t1 = generateTrace(*w, 50000, 42);
    EXPECT_EQ(t1.size(), 50000u);
    EXPECT_GT(t1.totalInstructions(), t1.size());
    // Some workloads are read-only in steady state; all must read.
    EXPECT_LT(t1.writes(), t1.size());
    const auto t2 = generateTrace(*w, 50000, 42);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(t1.records()[i].vaddr, t2.records()[i].vaddr);
        EXPECT_EQ(t1.records()[i].is_write, t2.records()[i].is_write);
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadTraces,
                         ::testing::Values("pageRank", "graphColoring",
                                           "connectedComp", "degreeCentr",
                                           "DFS", "BFS", "triangleCount",
                                           "shortestPath", "canneal",
                                           "omnetpp", "mcf"));

// A generator stops recording once its budget is met: every registered
// workload fills exactly N records with no refused appends (the tail of
// its last kernel step used to overrun the buffer and log a misleading
// "trace buffer full" warning), and the N records are the ones the
// unbounded generator produced.
TEST(WorkloadTraces, GeneratorsStopAtBudget)
{
    const std::size_t sizes[] = {10000, 123457, 1000000};
    struct Golden
    {
        const char *name;
        std::uint64_t digests[3]; //!< One per size, in order.
    };
    const Golden goldens[] = {
        {"pageRank",
         {0x2f1e776d20fce353ULL, 0x549d67274cddd5ddULL,
          0xf2ba2d3f16984eabULL}},
        {"graphColoring",
         {0x13d8cc9010858e5bULL, 0x50ebe599ad7eee1fULL,
          0x829e9aa4b342ab77ULL}},
        {"connectedComp",
         {0x7365c840b5f9c5a0ULL, 0xdcd17d232f47530aULL,
          0xbcb9cb2aac769e87ULL}},
        {"degreeCentr",
         {0xfff07b29a9ae2ee7ULL, 0x5dd7652339298e60ULL,
          0xb48f7d7c48537436ULL}},
        {"DFS",
         {0x6d913a8362ed4ecaULL, 0x07aba7e8fd9ca0a9ULL,
          0x2dee4448606f51a9ULL}},
        {"BFS",
         {0x2fac738958dcb8d5ULL, 0x15dc88b965e39546ULL,
          0x11e82ddd2db99944ULL}},
        {"triangleCount",
         {0xb20e1d0e7ab1784fULL, 0xb481805671fc24f5ULL,
          0xe702e75f22971cdcULL}},
        {"shortestPath",
         {0x6933a76daa397422ULL, 0x96048af89b68e251ULL,
          0x2dbbb5cb669df4c2ULL}},
        {"canneal",
         {0xd131ed95c0fd4d6aULL, 0x516fdfc637ff3301ULL,
          0x277c27f4f8a6dfddULL}},
        {"omnetpp",
         {0xf291e2e841bc46b3ULL, 0x7cd50c87f0b4ba3dULL,
          0x88159632b5206662ULL}},
        {"mcf",
         {0xe0acfdb54bc1b0dcULL, 0xc226800a33acdac5ULL,
          0x69ca45da74700553ULL}},
    };
    ASSERT_EQ(std::size(goldens), workloadSuite().size());
    for (const Golden &g : goldens) {
        const Workload *w = findWorkload(g.name);
        ASSERT_NE(w, nullptr) << g.name;
        for (std::size_t k = 0; k < std::size(sizes); ++k) {
            const auto t = generateTrace(*w, sizes[k], 42);
            EXPECT_EQ(t.size(), sizes[k]) << g.name;
            EXPECT_EQ(t.dropped(), 0u) << g.name << " at " << sizes[k];
            std::uint64_t h = 0xcbf29ce484222325ULL;
            for (const trace::Record &r : t.records()) {
                const std::uint64_t word =
                    r.vaddr | (static_cast<std::uint64_t>(r.inst_gap) << 47) |
                    (static_cast<std::uint64_t>(r.is_write) << 63);
                for (int b = 0; b < 8; ++b) {
                    h ^= (word >> (8 * b)) & 0xff;
                    h *= 0x100000001b3ULL;
                }
            }
            EXPECT_EQ(h, g.digests[k]) << g.name << " at " << sizes[k]
                                       << std::hex << " digest 0x" << h;
        }
    }
}

TEST(WorkloadCharacter, CannealIsMoreIrregularThanMcf)
{
    // Distinct-blocks-per-access separates the suite's extremes: canneal
    // scatters, mcf streams with reuse across passes.
    const auto canneal = generateTrace(*findWorkload("canneal"), 60000, 1);
    const auto mcf = generateTrace(*findWorkload("mcf"), 60000, 1);
    const double c = static_cast<double>(canneal.distinctBlocks()) /
                     static_cast<double>(canneal.size());
    const double m = static_cast<double>(mcf.distinctBlocks()) /
                     static_cast<double>(mcf.size());
    EXPECT_GT(c, m);
}

TEST(WorkloadCharacter, WriteIntensityVaries)
{
    const auto pr = generateTrace(*findWorkload("pageRank"), 60000, 1);
    const auto tc = generateTrace(*findWorkload("triangleCount"), 60000, 1);
    // PageRank pushes (writes); triangle counting only reads adjacency.
    EXPECT_GT(pr.writes() * 10, pr.size());
    EXPECT_LT(tc.writes() * 10, tc.size());
}
