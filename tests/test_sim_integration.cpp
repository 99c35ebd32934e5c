/**
 * @file
 * End-to-end integration tests: functional and timing simulations over
 * real workload traces, cross-config orderings (non-secure fastest,
 * RMCC >= Morphable on irregular workloads), statistic conservation, and
 * determinism.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "fault/campaign.hpp"
#include "sim/experiments.hpp"

using namespace rmcc;
using namespace rmcc::sim;

namespace
{

/** Small-but-real experiment shape to keep the test quick. */
void
shrink(SystemConfig &cfg)
{
    cfg.trace_records = 150000;
    cfg.warmup_records = 75000;
    // At this miniature scale the default lifetime-warmup grant cannot
    // relevel a full working set; give the emulated prior lifetime
    // enough budget to converge, as the full-scale defaults do.
    cfg.precondition_budget_fraction = 30.0;
}

} // namespace

TEST(Integration, FunctionalStatsConservation)
{
    NamedConfig nc = baselineConfig(SimMode::Functional,
                                    ctr::SchemeKind::Morphable);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    const SimResult r = runOne(w->name, trace, nc);
    EXPECT_DOUBLE_EQ(r.stats.get("mc.reads"), r.stats.get("sim.llc_misses"));
    EXPECT_DOUBLE_EQ(r.stats.get("ctr.l0_hit") + r.stats.get("ctr.l0_miss"),
                     r.stats.get("mc.reads"));
    EXPECT_GT(r.counterMissRate(), 0.5); // canneal thrashes counters
    EXPECT_LE(r.counterMissRate(), 1.0);
}

TEST(Integration, TimingOrderingNonSecureFastest)
{
    std::vector<NamedConfig> configs = {
        nonSecureConfig(SimMode::Timing),
        baselineConfig(SimMode::Timing, ctr::SchemeKind::SC64),
        baselineConfig(SimMode::Timing, ctr::SchemeKind::Morphable),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    const double nonsecure = row.results[0].perf();
    const double sc64 = row.results[1].perf();
    const double morph = row.results[2].perf();
    EXPECT_GT(nonsecure, morph);
    EXPECT_GT(nonsecure, sc64);
    // Morphable's 128-block coverage beats SC-64 on irregular workloads.
    EXPECT_GE(morph, sc64 * 0.98);
}

TEST(Integration, RmccBeatsMorphableOnCanneal)
{
    std::vector<NamedConfig> configs = {
        baselineConfig(SimMode::Timing, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Timing),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    EXPECT_GT(row.results[1].perf(), row.results[0].perf());
    EXPECT_LT(row.results[1].avgReadLatencyNs(),
              row.results[0].avgReadLatencyNs());
    EXPECT_GT(row.results[1].acceleratedMissRate(), 0.8);
}

TEST(Integration, RmccMemoHitRateHighAfterLifetimeWarmup)
{
    NamedConfig nc = rmccConfig(SimMode::Functional);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    const SimResult r = runOne(w->name, trace, nc);
    EXPECT_GT(r.memoHitRateAll(), 0.8);
    EXPECT_GT(r.stats.get("rmcc.avg_coverage_l0"), 100.0);
}

TEST(Integration, RmccTrafficOverheadBounded)
{
    std::vector<NamedConfig> configs = {
        baselineConfig(SimMode::Functional, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Functional),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    const double overhead = row.results[1].dramAccesses() /
                                row.results[0].dramAccesses() -
                            1.0;
    // 1% budget per level plus residual convergence: well under 10%.
    EXPECT_LT(overhead, 0.10);
    EXPECT_GT(overhead, -0.10);
}

TEST(Integration, DeterministicAcrossRuns)
{
    NamedConfig nc = rmccConfig(SimMode::Timing);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("omnetpp");
    const auto trace = wl::generateTrace(*w, nc.cfg.trace_records, 42);
    const SimResult a = runOne(w->name, trace, nc);
    const SimResult b = runOne(w->name, trace, nc);
    EXPECT_DOUBLE_EQ(a.elapsed_ns, b.elapsed_ns);
    EXPECT_DOUBLE_EQ(a.dramAccesses(), b.dramAccesses());
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Integration, HugePagesNearlyEliminateTlbMisses)
{
    NamedConfig small = baselineConfig(SimMode::Functional,
                                       ctr::SchemeKind::Morphable);
    shrink(small.cfg);
    small.cfg.page_mode = addr::PageMode::Small4K;
    NamedConfig huge = small;
    huge.cfg.page_mode = addr::PageMode::Huge2M;
    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, small.cfg.trace_records, 42);
    const SimResult rs = runOne(w->name, trace, small);
    const SimResult rh = runOne(w->name, trace, huge);
    EXPECT_GT(rs.stats.get("tlb.misses"),
              10.0 * (rh.stats.get("tlb.misses") + 1.0));
}

TEST(Integration, SystemMaxGrowsModestlyUnderRmcc)
{
    // Sec IV-D2: RMCC raises the maximum counter value faster than the
    // baseline, but only modestly (paper: +24% geomean over lifetimes).
    std::vector<NamedConfig> configs = {
        baselineConfig(SimMode::Functional, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Functional),
    };
    for (auto &nc : configs)
        shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const SuiteRow row = runWorkload(*w, configs);
    const double base_max = row.results[0].stats.get("ctr.observed_max");
    const double rmcc_max = row.results[1].stats.get("ctr.observed_max");
    EXPECT_GE(rmcc_max, base_max * 0.99);
    EXPECT_LT(rmcc_max, base_max * 3.0);
}

TEST(Integration, Table1DescribeMentionsKeyRows)
{
    const SystemConfig cfg = SystemConfig::timingDefault();
    const std::string text = cfg.describe();
    for (const char *key :
         {"192 entry ROB", "1536 entries", "Counter Cache", "AES latency",
          "FR-FCFS", "XOR-based"})
        EXPECT_NE(text.find(key), std::string::npos) << key;
}

TEST(Integration, RegistryLookupsIndependentOfTraceLength)
{
    // The hot loop must not consult the string-keyed stat registry per
    // record: after a warm-up run, a 2x longer trace resolves exactly as
    // many names as the short one.
    NamedConfig nc = rmccConfig(SimMode::Timing);
    shrink(nc.cfg);
    const auto *w = wl::findWorkload("canneal");
    const auto short_trace =
        wl::generateTrace(*w, nc.cfg.trace_records, 42);
    NamedConfig nc_long = nc;
    nc_long.cfg.trace_records = 2 * nc.cfg.trace_records;
    nc_long.cfg.warmup_records = 2 * nc.cfg.warmup_records;
    const auto long_trace =
        wl::generateTrace(*w, nc_long.cfg.trace_records, 42);

    runTiming(w->name, short_trace, nc.cfg); // warm lazy registrations

    const std::uint64_t base0 = util::StatSet::stringLookups();
    runTiming(w->name, short_trace, nc.cfg);
    const std::uint64_t short_lookups =
        util::StatSet::stringLookups() - base0;

    const std::uint64_t base1 = util::StatSet::stringLookups();
    runTiming(w->name, long_trace, nc_long.cfg);
    const std::uint64_t long_lookups =
        util::StatSet::stringLookups() - base1;

    EXPECT_EQ(short_lookups, long_lookups)
        << "string-keyed stat lookups must not scale with trace length";
}

namespace
{

/** FNV-1a over 64-bit words and strings. */
struct CellDigest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void byte(unsigned char b)
    {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    void add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            byte(static_cast<unsigned char>(v >> (8 * b)));
    }
    void add(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }
    void add(const std::string &str)
    {
        for (const char c : str)
            byte(static_cast<unsigned char>(c));
        add(static_cast<std::uint64_t>(str.size()));
    }
    /** The fields two runs of one cell must agree on bit for bit. */
    void add(const SimResult &r)
    {
        for (const auto &[name, value] : r.stats.all()) {
            add(name);
            add(value);
        }
        add(r.instructions);
        add(r.elapsed_ns);
    }
    void add(const fault::FaultStats &fs)
    {
        for (const auto &site : fs.counts)
            for (const auto &kind : site)
                for (const std::uint64_t n : kind)
                    add(n);
        add(fs.injected);
        add(fs.reads_verified);
        add(fs.unexpected_failures);
    }
};

/** A configuration shaped like a short benchmark cell. */
SystemConfig
cellShape(NamedConfig nc, std::size_t records)
{
    nc.cfg.trace_records = records;
    nc.cfg.warmup_records = records / 2;
    nc.cfg.seed = 42;
    return nc.cfg;
}

} // namespace

// Bit-identity of whole cells across host-side refactors: the four
// Fig 13 timing cells on two workloads and the functional Morphable+RMCC
// cell with and without a seeded fault campaign, digested over every
// field the benchmark's repeat check compares.  Recorded once; a change
// here is a re-baseline of the simulated figures, not a refactor.
TEST(Integration, GoldenCellDigests)
{
    constexpr std::size_t kRecords = 60000;
    const std::vector<NamedConfig> timing = {
        nonSecureConfig(SimMode::Timing),
        baselineConfig(SimMode::Timing, ctr::SchemeKind::SC64),
        baselineConfig(SimMode::Timing, ctr::SchemeKind::Morphable),
        rmccConfig(SimMode::Timing),
    };
    struct Golden
    {
        const char *workload;
        std::uint64_t digests[4]; //!< One per timing config, in order.
    };
    const Golden goldens[] = {
        {"canneal",
         {0x974c14fae265e2a5ULL, 0x7e3aac84f4656027ULL,
          0x33a436e802b647b2ULL, 0x15050beb69d73322ULL}},
        {"omnetpp",
         {0x74de1c662a234c6dULL, 0xae343724a9c5e294ULL,
          0xbafb317021057195ULL, 0xc7ba1ceb8ef61478ULL}},
    };
    for (const Golden &g : goldens) {
        const auto *w = wl::findWorkload(g.workload);
        const auto trace = wl::generateTrace(*w, kRecords, 42);
        for (std::size_t c = 0; c < timing.size(); ++c) {
            CellDigest d;
            d.add(runTiming(w->name, trace, cellShape(timing[c], kRecords)));
            EXPECT_EQ(d.h, g.digests[c])
                << g.workload << " / " << timing[c].label << std::hex
                << " digest 0x" << d.h;
        }
    }

    const auto *w = wl::findWorkload("canneal");
    const auto trace = wl::generateTrace(*w, kRecords, 42);
    const SystemConfig fcfg =
        cellShape(rmccConfig(SimMode::Functional), kRecords);
    const std::uint64_t fgoldens[2] = {0x330cfbc0e728bbb9ULL,
                                       0x28e6739512c0f997ULL};
    for (const bool with_campaign : {false, true}) {
        CellDigest d;
        if (with_campaign) {
            fault::FaultPlan plan;
            plan.injections = 100;
            plan.gap_records = kRecords / (2 * plan.injections);
            plan.seed = 42 ^ 0x5eedULL;
            fault::FaultCampaign campaign(plan, fault::OracleConfig());
            d.add(runFunctional(w->name, trace, fcfg, &campaign));
            d.add(campaign.stats());
            EXPECT_EQ(campaign.stats().silent(), 0u);
            EXPECT_EQ(campaign.stats().injected, plan.injections);
        } else {
            d.add(runFunctional(w->name, trace, fcfg));
        }
        EXPECT_EQ(d.h, fgoldens[with_campaign])
            << "functional Morphable+RMCC"
            << (with_campaign ? "+faults" : "") << std::hex << " digest 0x"
            << d.h;
    }

    // Randomized 4 KB frames, where every physical address depends on
    // the order pages are first touched, on omnetpp, whose records
    // mostly stay in the caches: a timing and a functional
    // Morphable+RMCC cell.
    const auto *o = wl::findWorkload("omnetpp");
    const auto otrace = wl::generateTrace(*o, kRecords, 42);
    const std::uint64_t small_goldens[2] = {0xc83a1e86e32736fbULL,
                                            0xac332120c1c67a2dULL};
    for (const SimMode mode : {SimMode::Timing, SimMode::Functional}) {
        SystemConfig cfg = cellShape(rmccConfig(mode), kRecords);
        cfg.page_mode = addr::PageMode::Small4K;
        const bool timed = mode == SimMode::Timing;
        CellDigest d;
        d.add(timed ? runTiming(o->name, otrace, cfg)
                    : runFunctional(o->name, otrace, cfg));
        EXPECT_EQ(d.h, small_goldens[timed ? 0 : 1])
            << (timed ? "timing" : "functional")
            << " Small4K Morphable+RMCC" << std::hex << " digest 0x" << d.h;
    }
}
