/**
 * @file
 * Front-end stream tests: the stream a trace memoizes must equal a live
 * Tlb + PageMapper + Hierarchy pass (in which every page's first touch
 * misses the LLC), belong to that trace object alone, survive a
 * cancelled build, and be built once under a parallel suite.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "sim/experiments.hpp"
#include "sim/front_end.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_reader.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

using namespace rmcc;

namespace
{

constexpr std::size_t kRecords = 60000;

const wl::Workload &
canneal()
{
    return *wl::findWorkload("canneal");
}

/**
 * Replay the trace through a live Tlb + PageMapper + Hierarchy and check
 * every record's event, and every victim, against the stream.  Also
 * checks the invariant that lets the replay loops translate only LLC
 * misses: every record that first touches its page misses the LLC.
 * Returns the largest writeback count seen on one record.
 */
unsigned
expectMatchesLivePass(const trace::TraceSource &trace,
                      const sim::SystemConfig &cfg,
                      const sim::FrontEndStream &s)
{
    addr::PageMapper mapper = sim::makePageMapper(cfg);
    cache::Tlb tlb(cfg.tlb_entries, cfg.tlb_assoc, mapper.pageSize());
    cache::Hierarchy hier(cfg.l1, cfg.l2, cfg.llc);
    EXPECT_EQ(s.events.size(), trace.size());
    std::size_t i = 0, v = 0;
    unsigned max_wb = 0;
    const auto cur = trace.cursor();
    for (trace::TraceWindow w = cur->next(); w.count != 0; w = cur->next())
        for (std::size_t k = 0; k < w.count; ++k, ++i) {
            const trace::Record &rec = w.data[k];
            const bool tlb_miss = !tlb.access(rec.vaddr);
            const std::size_t pages = mapper.allocatedPages();
            const cache::HierarchyResult h =
                hier.access(mapper.translate(rec.vaddr), rec.is_write);
            if (mapper.allocatedPages() != pages) {
                EXPECT_TRUE(h.llc_miss) << "first touch hits at " << i;
            }
            if (i >= s.events.size())
                continue;
            const std::uint8_t e = s.events[i];
            EXPECT_EQ(sim::FrontEndStream::hitLevel(e), h.hit_level) << i;
            EXPECT_EQ(sim::FrontEndStream::llcMiss(e), h.llc_miss) << i;
            EXPECT_EQ(sim::FrontEndStream::tlbMiss(e), tlb_miss) << i;
            EXPECT_EQ(sim::FrontEndStream::writebacks(e), h.writeback_count)
                << i;
            for (unsigned n = 0; n < h.writeback_count; ++n, ++v) {
                if (v >= s.victims.size()) {
                    ADD_FAILURE() << "stream ran out of victims at " << i;
                    return max_wb;
                }
                EXPECT_EQ(s.victims[v], h.writebacks[n]) << i;
            }
            if (h.writeback_count > 0) {
                EXPECT_EQ(h.writebacks[h.writeback_count - 1],
                          *h.memory_writeback);
            }
            max_wb = std::max(max_wb, h.writeback_count);
        }
    EXPECT_EQ(v, s.victims.size());
    return max_wb;
}

struct LiveCase
{
    const char *name;
    sim::SystemConfig cfg;
};

std::vector<LiveCase>
liveCases()
{
    sim::SystemConfig small = sim::SystemConfig::timingDefault();
    small.page_mode = addr::PageMode::Small4K;
    sim::SystemConfig tlb = sim::SystemConfig::functionalDefault();
    tlb.tlb_entries = 1536;
    tlb.tlb_assoc = 8;
    // Tiny caches so dirty victims cascade and records evict more than
    // one dirty LLC line.
    tlb.l1 = {4 * 1024, 2, 2.0};
    tlb.l2 = {8 * 1024, 2, 4.0};
    tlb.llc = {16 * 1024, 2, 17.0};
    return {{"Timing", sim::SystemConfig::timingDefault()},
            {"Functional", sim::SystemConfig::functionalDefault()},
            {"Small4K", small},
            {"Tlb1536x8TinyCaches", tlb}};
}

/**
 * The trace's stream for cfg, taken through the same memo slot as
 * frontEndStream() but counting the builds this call runs.
 */
std::shared_ptr<const sim::FrontEndStream>
countedStream(const trace::TraceSource &trace, const sim::SystemConfig &cfg,
              std::atomic<unsigned> &builds)
{
    return trace.derived<sim::FrontEndStream>(
        sim::frontEndKey(trace, cfg), [&] {
            builds.fetch_add(1);
            return sim::buildFrontEnd(trace, cfg);
        });
}

/** Scoped RMCC_JOBS value, unset on destruction. */
struct JobsEnv
{
    explicit JobsEnv(const char *jobs) { setenv("RMCC_JOBS", jobs, 1); }
    ~JobsEnv() { unsetenv("RMCC_JOBS"); }
};

} // namespace

TEST(FrontEnd, StreamMatchesLivePass)
{
    const trace::TraceBuffer trace =
        wl::generateTrace(canneal(), kRecords, 42);
    for (const LiveCase &c : liveCases()) {
        SCOPED_TRACE(c.name);
        const auto s = sim::frontEndStream(trace, c.cfg);
        const unsigned max_wb = expectMatchesLivePass(trace, c.cfg, *s);
        if (std::string(c.name) == "Tlb1536x8TinyCaches") {
            // 1536 / 8 = 192 sets: the set index takes the modulo path.
            const unsigned sets = c.cfg.tlb_entries / c.cfg.tlb_assoc;
            EXPECT_NE(sets & (sets - 1), 0u);
            EXPECT_GE(max_wb, 2u);
        }
    }
}

TEST(FrontEnd, SpilledStreamMatchesInRam)
{
    constexpr std::size_t kSpilled = 20000;
    const sim::SystemConfig cfg = sim::SystemConfig::functionalDefault();
    const trace::TraceBuffer ram =
        wl::generateTrace(canneal(), kSpilled, 7);
    const std::string path = testing::TempDir() + "rmcc_front_end_spill";
    std::remove(path.c_str());
    {
        trace::TraceFileWriter writer(
            path, kSpilled, trace::traceFingerprint("canneal", kSpilled, 7));
        canneal().generate(writer, 7);
        writer.finalize();
    }
    // A window that does not divide the trace: several boundaries.
    const trace::TraceFileReader file(path, 3300);
    const auto a = sim::frontEndStream(ram, cfg);
    const auto b = sim::frontEndStream(file, cfg);
    EXPECT_EQ(a->events, b->events);
    EXPECT_EQ(a->victims, b->victims);
    expectMatchesLivePass(file, cfg, *b);
    std::remove(path.c_str());
}

TEST(FrontEnd, MemoizedPerSourceAndKey)
{
    const trace::TraceBuffer trace =
        wl::generateTrace(canneal(), kRecords, 42);
    sim::SystemConfig cfg = sim::SystemConfig::timingDefault();
    const auto a = sim::frontEndStream(trace, cfg);
    // Memory-side fields and latencies are not part of the key.
    cfg.secure = false;
    cfg.rmcc = true;
    cfg.counter_cache_bytes = 32 * 1024;
    cfg.lat.aes_ns = 22;
    cfg.llc.latency_ns = 30;
    EXPECT_EQ(sim::frontEndStream(trace, cfg).get(), a.get());
    // Cache geometry is.
    cfg.llc.size_bytes = 2ULL * 1024 * 1024;
    const auto b = sim::frontEndStream(trace, cfg);
    EXPECT_NE(b.get(), a.get());
    expectMatchesLivePass(trace, cfg, *b);
}

TEST(FrontEnd, RegeneratedTracesNeverShareAStream)
{
    // Same size, different contents, each trace destroyed before the
    // next is made (so the allocator may hand out the same address).
    const sim::SystemConfig cfg = sim::SystemConfig::timingDefault();
    std::vector<std::vector<std::uint8_t>> seen;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto trace = std::make_unique<trace::TraceBuffer>(
            wl::generateTrace(canneal(), kRecords, seed));
        const auto s = sim::frontEndStream(*trace, cfg);
        const auto live = sim::buildFrontEnd(*trace, cfg);
        EXPECT_EQ(s->events, live->events) << seed;
        EXPECT_EQ(s->victims, live->victims) << seed;
        for (const auto &earlier : seen)
            EXPECT_NE(earlier, s->events) << seed;
        seen.push_back(s->events);
    }

    // Assigning a new trace over an old one drops the old stream too.
    trace::TraceBuffer t = wl::generateTrace(canneal(), kRecords, 11);
    const auto first = sim::frontEndStream(t, cfg);
    t = wl::generateTrace(canneal(), kRecords, 12);
    const auto second = sim::frontEndStream(t, cfg);
    EXPECT_NE(first->events, second->events);
    EXPECT_EQ(second->events, sim::buildFrontEnd(t, cfg)->events);
}

TEST(FrontEnd, CancelledBuildPublishesNothing)
{
    const trace::TraceBuffer trace =
        wl::generateTrace(canneal(), kRecords, 42);
    const sim::SystemConfig cfg = sim::SystemConfig::timingDefault();
    {
        std::atomic<bool> stop{true};
        util::CancelScope scope(&stop, 0);
        EXPECT_THROW(sim::frontEndStream(trace, cfg), util::CancelledError);
    }

    // The next cell builds the stream afresh and runs to completion: it
    // leaves a whole stream in the memo, so the cancelled build left
    // none (a partial one would have been replayed and kept).
    sim::NamedConfig nc = sim::rmccConfig(sim::SimMode::Timing);
    nc.cfg.trace_records = kRecords;
    nc.cfg.warmup_records = kRecords / 2;
    const sim::SimResult r = sim::runOne("canneal", trace, nc);
    EXPECT_GT(r.instructions, 0u);
    std::atomic<unsigned> builds{0};
    const auto s = countedStream(trace, cfg, builds);
    EXPECT_EQ(builds.load(), 0u);
    EXPECT_EQ(s.get(), sim::frontEndStream(trace, cfg).get());
    expectMatchesLivePass(trace, cfg, *s);
}

TEST(FrontEnd, ConcurrentFirstUseBuildsOnce)
{
    JobsEnv jobs("4");
    ASSERT_EQ(sim::suiteJobs(), 4u);
    util::ThreadPool pool(sim::suiteJobs());

    // Four workers released together ask for one fresh trace's stream.
    const trace::TraceBuffer trace =
        wl::generateTrace(canneal(), kRecords, 42);
    const sim::SystemConfig cfg = sim::SystemConfig::timingDefault();
    std::atomic<unsigned> builds{0};
    std::vector<const sim::FrontEndStream *> got(4, nullptr);
    std::atomic<unsigned> arrived{0};
    util::parallelFor(pool, got.size(), [&](std::size_t t) {
        arrived.fetch_add(1);
        while (arrived.load() < got.size()) {
        }
        got[t] = countedStream(trace, cfg, builds).get();
    });
    EXPECT_EQ(builds.load(), 1u);
    for (const sim::FrontEndStream *p : got)
        EXPECT_EQ(p, got[0]);

    // Four cells with one front-end key, racing on another fresh trace,
    // publish one stream and match the same cells run one by one.
    std::vector<sim::NamedConfig> configs = {
        sim::nonSecureConfig(sim::SimMode::Timing),
        sim::baselineConfig(sim::SimMode::Timing, ctr::SchemeKind::SC64),
        sim::baselineConfig(sim::SimMode::Timing,
                            ctr::SchemeKind::Morphable),
        sim::rmccConfig(sim::SimMode::Timing),
    };
    for (auto &nc : configs) {
        nc.cfg.trace_records = 30000;
        nc.cfg.warmup_records = 15000;
    }
    const trace::TraceBuffer shared =
        wl::generateTrace(canneal(), 30000, 42);
    std::vector<sim::SimResult> parallel(configs.size());
    util::parallelFor(pool, configs.size(), [&](std::size_t c) {
        parallel[c] = sim::runOne("canneal", shared, configs[c]);
    });
    builds = 0;
    (void)countedStream(shared, configs[0].cfg, builds);
    EXPECT_EQ(builds.load(), 0u);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const trace::TraceBuffer own =
            wl::generateTrace(canneal(), 30000, 42);
        const sim::SimResult serial = sim::runOne("canneal", own, configs[c]);
        EXPECT_EQ(parallel[c].instructions, serial.instructions)
            << configs[c].label;
        EXPECT_EQ(parallel[c].stats.all(), serial.stats.all())
            << configs[c].label;
    }
}
