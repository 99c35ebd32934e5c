/**
 * @file
 * Candidate-monitor tests: the X+1+8i / X+129+2^j ladder, the 2 K
 * high-read trigger, and the 98% selection rule (Sec IV-C3).
 */
#include <gtest/gtest.h>

#include <vector>

#include "core/candidate_monitor.hpp"
#include "util/rng.hpp"

using namespace rmcc::core;

TEST(Monitor, CandidateLadderShape)
{
    CandidateMonitor m;
    m.arm(1000);
    const auto &c = m.candidates();
    ASSERT_EQ(c.size(), 17u + 14u);
    // Fine rungs X+1+8i, i = 0..16.
    for (unsigned i = 0; i <= 16; ++i)
        EXPECT_EQ(c[i], 1000u + 1 + 8 * i);
    // Exponential rungs X+129+2^j, j = 4..17.
    for (unsigned j = 4; j <= 17; ++j)
        EXPECT_EQ(c[17 + j - 4], 1000u + 129 + (1ULL << j));
    // Ladder is strictly ascending.
    for (std::size_t i = 1; i < c.size(); ++i)
        EXPECT_GT(c[i], c[i - 1]);
}

TEST(Monitor, NoSelectionBeforeTrigger)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 100;
    CandidateMonitor m(cfg);
    m.arm(0);
    for (int i = 0; i < 99; ++i)
        m.observeRead(50); // all above X=0
    EXPECT_FALSE(m.takeSelection().has_value());
    m.observeRead(50);
    EXPECT_TRUE(m.takeSelection().has_value());
}

TEST(Monitor, ReadsBelowArmedMaxDontTrigger)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 10;
    CandidateMonitor m(cfg);
    m.arm(1000);
    for (int i = 0; i < 100; ++i)
        m.observeRead(500); // below X
    EXPECT_EQ(m.highReads(), 0u);
    EXPECT_FALSE(m.takeSelection().has_value());
}

TEST(Monitor, SelectsSmallestCandidateCovering98Percent)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 100;
    CandidateMonitor m(cfg);
    m.arm(1000);
    // All reads at 1040: the smallest candidate above 1040 covers 100%.
    for (int i = 0; i < 200; ++i)
        m.observeRead(1040);
    const auto sel = m.takeSelection();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 1041u); // 1000+1+8*5
}

TEST(Monitor, TwoPercentOutliersIgnored)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 100;
    cfg.coverage_goal = 0.98;
    CandidateMonitor m(cfg);
    m.arm(1000);
    // 99% of reads at 1010, 1% far above: the selection tracks the bulk.
    for (int i = 0; i < 990; ++i)
        m.observeRead(1010);
    for (int i = 0; i < 10; ++i)
        m.observeRead(900000);
    const auto sel = m.takeSelection();
    ASSERT_TRUE(sel.has_value());
    EXPECT_LE(*sel, 1000u + 129 + (1ULL << 17));
    EXPECT_LE(*sel, 1017u + 8);
}

TEST(Monitor, FarReadsPickTopRungAndRatchet)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 10;
    CandidateMonitor m(cfg);
    m.arm(0);
    // Reads far above every rung: even the top rung covers < 98%, so the
    // monitor returns the top rung and the ladder ratchets upward on the
    // next arming.
    for (int i = 0; i < 20; ++i)
        m.observeRead(10000000);
    const auto sel = m.takeSelection();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(*sel, 129u + (1ULL << 17));
}

TEST(Monitor, RearmResetsCounts)
{
    MonitorConfig cfg;
    cfg.trigger_reads = 10;
    CandidateMonitor m(cfg);
    m.arm(0);
    for (int i = 0; i < 20; ++i)
        m.observeRead(5);
    EXPECT_TRUE(m.takeSelection().has_value());
    m.arm(100);
    EXPECT_EQ(m.highReads(), 0u);
    EXPECT_FALSE(m.takeSelection().has_value());
}

TEST(Monitor, SelectionMatchesPerRungCounts)
{
    // The selection must equal the rule stated per rung: count, for every
    // candidate, the reads strictly below it and take the smallest that
    // reaches the goal.  Reads land on, just under and just over rungs,
    // and one in five lands at or below the armed maximum (the early-out
    // path), including exactly on it and on zero.
    rmcc::util::Rng rng(7);
    const rmcc::addr::CounterValue armed = 5000;
    for (const double goal : {0.5, 0.9, 0.98, 1.0}) {
        MonitorConfig cfg;
        cfg.trigger_reads = 1;
        cfg.coverage_goal = goal;
        CandidateMonitor m(cfg);
        m.arm(armed);
        const std::vector<rmcc::addr::CounterValue> ladder = m.candidates();
        std::vector<std::uint64_t> below(ladder.size(), 0);
        std::uint64_t high = 0;
        const int reads = 3000;
        for (int r = 0; r < reads; ++r) {
            rmcc::addr::CounterValue v = 0;
            if (rng.nextBool(0.2)) {
                const auto pick = rng.nextBelow(4);
                v = pick == 0 ? armed : pick == 1 ? 0 : rng.nextBelow(armed);
            } else {
                const auto rung = ladder[rng.nextBelow(ladder.size())];
                v = rung - 1 + rng.nextBelow(3) +
                    (rng.nextBool(0.1) ? rng.nextBelow(4000) : 0);
            }
            m.observeRead(v);
            high += v > armed ? 1 : 0;
            for (std::size_t c = 0; c < ladder.size(); ++c)
                below[c] += v < ladder[c] ? 1 : 0;
        }
        EXPECT_EQ(m.highReads(), high) << "goal " << goal;
        rmcc::addr::CounterValue want = ladder.back();
        for (std::size_t c = 0; c < ladder.size(); ++c)
            if (static_cast<double>(below[c]) >= goal * reads) {
                want = ladder[c];
                break;
            }
        const auto sel = m.takeSelection();
        ASSERT_TRUE(sel.has_value());
        EXPECT_EQ(*sel, want) << "goal " << goal;
    }
}
