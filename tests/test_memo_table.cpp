/**
 * @file
 * Memoization-table tests: group lookup, LFU insertion/eviction, shadow
 * groups, MRU evicted values, nearest-above queries, and end-of-epoch
 * reselection (Sec IV-C3/C4).
 */
#include <gtest/gtest.h>

#include "core/memo_table.hpp"
#include "util/rng.hpp"

using namespace rmcc::core;

TEST(MemoTable, EmptyTableMissesEverything)
{
    MemoTable t;
    EXPECT_EQ(t.lookupRead(5), MemoHit::Miss);
    EXPECT_FALSE(t.contains(5));
    EXPECT_FALSE(t.nearestAbove(0).has_value());
    EXPECT_EQ(t.maxInTable(), 0u);
    EXPECT_EQ(t.validGroups(), 0u);
}

TEST(MemoTable, GroupCoversConsecutiveValues)
{
    MemoTable t;
    t.insertGroup(100);
    for (rmcc::addr::CounterValue v = 100; v < 108; ++v)
        EXPECT_EQ(t.lookupRead(v), MemoHit::GroupHit) << v;
    EXPECT_EQ(t.lookupRead(99), MemoHit::Miss);
    EXPECT_EQ(t.lookupRead(108), MemoHit::Miss);
    EXPECT_EQ(t.groupHits(), 8u);
    EXPECT_EQ(t.misses(), 2u);
}

TEST(MemoTable, NearestAboveWithinAndAcrossGroups)
{
    MemoTable t;
    t.insertGroup(100);
    t.insertGroup(200);
    EXPECT_EQ(t.nearestAbove(50).value(), 100u);
    EXPECT_EQ(t.nearestAbove(100).value(), 101u);
    EXPECT_EQ(t.nearestAbove(106).value(), 107u);
    EXPECT_EQ(t.nearestAbove(107).value(), 200u); // group end -> next
    EXPECT_EQ(t.nearestAbove(206).value(), 207u);
    EXPECT_FALSE(t.nearestAbove(207).has_value());
    EXPECT_EQ(t.maxInTable(), 207u);
}

TEST(MemoTable, ConfigEntriesMatchPaper)
{
    const MemoConfig cfg;
    EXPECT_EQ(cfg.entries(), 128u);
    EXPECT_EQ(cfg.groups, 16u);
    EXPECT_EQ(cfg.group_size, 8u);
}

TEST(MemoTable, LfuInsertionEvictsColdestGroup)
{
    MemoConfig cfg;
    cfg.groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200);
    t.lookupRead(100); // heat group 100
    t.lookupRead(101);
    t.lookupRead(200); // group 200 colder
    t.insertGroup(300); // evicts 200 (LFU); 100 stays
    EXPECT_TRUE(t.inGroups(100));
    EXPECT_FALSE(t.inGroups(200));
    EXPECT_TRUE(t.inGroups(300));
}

TEST(MemoTable, EvictedGroupValuesBecomeRecentOnUse)
{
    MemoConfig cfg;
    cfg.groups = 1;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200); // 100 -> shadow
    // First use of an evicted-group value misses but gets memoized.
    EXPECT_EQ(t.lookupRead(103), MemoHit::Miss);
    EXPECT_EQ(t.lookupRead(103), MemoHit::RecentHit);
    EXPECT_TRUE(t.contains(103));
}

TEST(MemoTable, RecentListIsMruBounded)
{
    MemoConfig cfg;
    cfg.groups = 1;
    cfg.recent_values = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200); // 100..107 now shadow
    t.lookupRead(101);  // -> recent
    t.lookupRead(102);  // -> recent (full)
    t.lookupRead(103);  // -> pushes out 101
    EXPECT_EQ(t.lookupRead(102), MemoHit::RecentHit);
    EXPECT_EQ(t.lookupRead(103), MemoHit::RecentHit);
    EXPECT_EQ(t.lookupRead(101), MemoHit::Miss);
}

TEST(MemoTable, UpdatePolicyIgnoresRecentValues)
{
    // nearestAbove only targets groups: the MRU evicted values change
    // with every access, so the update policy must not chase them.
    MemoConfig cfg;
    cfg.groups = 1;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(300);
    t.lookupRead(105); // 105 now memoized as recent value
    EXPECT_TRUE(t.contains(105));
    EXPECT_EQ(t.nearestAbove(104).value(), 300u);
}

TEST(MemoTable, EndOfEpochKeepsHottestOf32)
{
    MemoConfig cfg;
    cfg.groups = 2;
    cfg.shadow_groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200);
    t.insertGroup(300); // one of {100,200} moves to shadow (LFU: 100)
    // Heat the shadowed group heavily: shadow freq counters learn.
    for (int i = 0; i < 50; ++i)
        t.lookupRead(100);
    for (int i = 0; i < 5; ++i)
        t.lookupRead(200);
    t.endOfEpoch();
    // The shadow group 100 out-scored a current group and is re-memoized.
    EXPECT_TRUE(t.inGroups(100));
}

TEST(MemoTable, EndOfEpochProtectsNewInsertion)
{
    MemoConfig cfg;
    cfg.groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    t.insertGroup(200);
    for (int i = 0; i < 50; ++i) {
        t.lookupRead(100);
        t.lookupRead(200);
    }
    t.insertGroup(900); // brand new, zero frequency, protected
    t.endOfEpoch();
    EXPECT_TRUE(t.inGroups(900));
}

TEST(MemoTable, FrequencyAgingHalvesAtEpoch)
{
    MemoConfig cfg;
    cfg.groups = 2;
    MemoTable t(cfg);
    t.insertGroup(100);
    for (int i = 0; i < 100; ++i)
        t.lookupRead(100);
    t.endOfEpoch();
    t.insertGroup(200);
    for (int i = 0; i < 60; ++i)
        t.lookupRead(200);
    t.endOfEpoch();
    // 100's aged frequency (50) < 200's (60): both kept (2 slots), but a
    // third hot insertion must now displace 100 first.
    t.insertGroup(300);
    EXPECT_TRUE(t.inGroups(200));
    EXPECT_FALSE(t.inGroups(100));
}

TEST(MemoTable, GoldenOpDigests)
{
    // A seeded mix of every public operation, pinned to reference
    // digests: LFU victim choice, shadow crediting, the MRU recent list,
    // protected-insertion reselection, quarantine and every tie-break
    // decide what each later call returns, so any change to them shows
    // here.  Each return value is folded in; the final table contents
    // and hit/miss counters close the digest.
    struct Golden
    {
        unsigned groups;
        unsigned group_size;
        unsigned recent_values;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {16, 8, 16, 0x8166954f4458d0bdULL},
        {32, 4, 0, 0x2a403771658b088eULL},
    };
    for (const Golden &g : goldens) {
        MemoConfig cfg;
        cfg.groups = g.groups;
        cfg.group_size = g.group_size;
        cfg.recent_values = g.recent_values;
        MemoTable t(cfg);
        // FNV-1a over 64-bit words.
        std::uint64_t h = 0xcbf29ce484222325ULL;
        const auto add = [&h](std::uint64_t v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        };
        rmcc::util::Rng rng(0x5eed0001ULL);
        // Mostly a hot range the table can cover, sometimes a cold one.
        const auto value = [&rng] {
            return rng.nextBelow(rng.nextBool(0.8) ? 256 : 4096);
        };
        for (int i = 0; i < 40000; ++i) {
            const std::uint64_t op = rng.nextBelow(1000);
            if (op < 600) {
                add(static_cast<std::uint64_t>(t.lookupRead(value())));
            } else if (op < 700) {
                t.insertGroup(value());
            } else if (op < 705) {
                t.endOfEpoch();
            } else if (op < 715) {
                add(t.quarantineValue(value()));
            } else if (op < 850) {
                const auto n = t.nearestAbove(value());
                add(n.has_value());
                add(n.value_or(0));
            } else if (op < 900) {
                add(t.maxInTable());
            } else {
                add(t.contains(value()));
            }
        }
        for (const rmcc::addr::CounterValue s : t.groupStarts())
            add(s);
        for (const rmcc::addr::CounterValue v : t.memoizedValues())
            add(v);
        add(t.groupHits());
        add(t.recentHits());
        add(t.misses());
        // The mix must reach every hit kind it can, or the digest pins
        // less than it claims.
        EXPECT_GT(t.groupHits(), 0u);
        EXPECT_EQ(t.recentHits() > 0, g.recent_values > 0);
        EXPECT_EQ(h, g.digest)
            << "groups=" << g.groups << " group_size=" << g.group_size
            << " recent=" << g.recent_values << std::hex << " digest 0x"
            << h;
    }
}

/** Parameterized group-size sweep (Fig 21/22 ablation machinery). */
class MemoGroupSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MemoGroupSize, EntriesConstantCoverageVaries)
{
    MemoConfig cfg;
    cfg.group_size = GetParam();
    cfg.groups = 128 / GetParam();
    EXPECT_EQ(cfg.entries(), 128u);
    MemoTable t(cfg);
    t.insertGroup(1000);
    for (unsigned k = 0; k < GetParam(); ++k)
        EXPECT_EQ(t.lookupRead(1000 + k), MemoHit::GroupHit);
    EXPECT_EQ(t.lookupRead(1000 + GetParam()), MemoHit::Miss);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MemoGroupSize,
                         ::testing::Values(4u, 8u, 16u));
