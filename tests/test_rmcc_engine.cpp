/**
 * @file
 * RMCC-engine tests: per-level tables, monitor-driven group insertion
 * with the Observed-System-Max cap, epoch machinery, read consults, and
 * coverage accounting (Sec IV, Fig 8).
 */
#include <gtest/gtest.h>

#include <set>

#include "core/rmcc_engine.hpp"

using namespace rmcc::core;
using namespace rmcc::ctr;
using rmcc::addr::CounterValue;

namespace
{

RmccConfig
testConfig()
{
    RmccConfig cfg;
    cfg.monitor.trigger_reads = 50; // fast triggers for tests
    cfg.budget.epoch_accesses = 1000;
    cfg.budget.initial_pool_accesses = 1e6;
    return cfg;
}

} // namespace

TEST(Engine, DisabledEngineIsTransparent)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    RmccConfig cfg = testConfig();
    cfg.enabled = false;
    RmccEngine engine(cfg, tree);
    const ReadConsult c = engine.onReadCounterUse(0, 5);
    EXPECT_EQ(c.hit, MemoHit::Miss);
    EXPECT_FALSE(c.releveled);
    const UpdateOutcome out = engine.onWriteCounter(0, 5);
    EXPECT_EQ(out.value, 1u);
    EXPECT_FALSE(out.used_memo_target);
}

TEST(Engine, MemoLevelsMatchConfig)
{
    IntegrityTree tree(SchemeKind::Morphable, 128 * 128 * 2);
    RmccConfig cfg = testConfig();
    cfg.memo_levels = 2;
    RmccEngine engine(cfg, tree);
    EXPECT_EQ(engine.memoLevels(), 2u);
}

TEST(Engine, HighReadsTriggerGroupInsertion)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    rmcc::util::Rng rng(1);
    tree.randomInit(rng, 1000);
    RmccEngine engine(testConfig(), tree);
    EXPECT_EQ(engine.table(0).validGroups(), 0u);
    for (int i = 0; i < 100; ++i)
        engine.onReadCounterUse(0, static_cast<std::uint64_t>(i) % 1024);
    EXPECT_EQ(engine.groupInsertions(0), 1u);
    EXPECT_GE(engine.table(0).validGroups(), 1u);
}

TEST(Engine, GroupStartCappedBySystemMax)
{
    // Sec IV-D2: new groups start at or below Observed-System-Max so the
    // largest counter only advances by one per writeback.
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    rmcc::util::Rng rng(1);
    tree.randomInit(rng, 1000);
    RmccEngine engine(testConfig(), tree);
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 200; ++i)
            engine.onReadCounterUse(0,
                                    static_cast<std::uint64_t>(i) % 1024);
        for (int i = 0; i < 1100; ++i)
            engine.onDramAccess(); // close an epoch, re-arm the monitor
        EXPECT_LE(engine.table(0).maxInTable(),
                  tree.observedMax() +
                      engine.config().memo.group_size)
            << "round " << round;
    }
}

TEST(Engine, AtMostOneInsertionPerEpoch)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    rmcc::util::Rng rng(1);
    tree.randomInit(rng, 1000);
    RmccConfig cfg = testConfig();
    cfg.budget.epoch_accesses = 1000000; // one long epoch
    RmccEngine engine(cfg, tree);
    for (int i = 0; i < 5000; ++i)
        engine.onReadCounterUse(0, static_cast<std::uint64_t>(i) % 1024);
    EXPECT_EQ(engine.groupInsertions(0), 1u);
}

TEST(Engine, ReadConsultHitsAfterConvergence)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    rmcc::util::Rng rng(1);
    tree.randomInit(rng, 1000);
    RmccEngine engine(testConfig(), tree);
    // Trigger insertion, then relevel through reads, then expect hits.
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t i = 0; i < 1024; ++i)
            engine.onReadCounterUse(0, i);
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < 1024; ++i)
        hits += engine.onReadCounterUse(0, i).hit != MemoHit::Miss;
    EXPECT_GT(hits, 900u);
}

TEST(Engine, WritesWalkIntoMemoizedValues)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    rmcc::util::Rng rng(1);
    tree.randomInit(rng, 1000);
    RmccEngine engine(testConfig(), tree);
    for (std::uint64_t i = 0; i < 1024; ++i)
        engine.onReadCounterUse(0, i); // seeds the table via the monitor
    std::uint64_t memo_writes = 0;
    for (std::uint64_t i = 0; i < 1024; ++i)
        memo_writes += engine.onWriteCounter(0, i).used_memo_target;
    EXPECT_GT(memo_writes, 512u);
}

TEST(Engine, EpochEndReselectsAndRearms)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    rmcc::util::Rng rng(1);
    tree.randomInit(rng, 1000);
    RmccEngine engine(testConfig(), tree);
    for (int i = 0; i < 100; ++i)
        engine.onReadCounterUse(0, static_cast<std::uint64_t>(i));
    const std::uint64_t insertions_before = engine.groupInsertions(0);
    for (int i = 0; i < 1000; ++i)
        engine.onDramAccess(); // epoch boundary
    for (int i = 0; i < 100; ++i)
        engine.onReadCounterUse(0, static_cast<std::uint64_t>(i));
    // A fresh epoch allows a fresh insertion if counters are above max.
    EXPECT_GE(engine.groupInsertions(0), insertions_before);
}

TEST(Engine, AverageCoverageCountsConformingCounters)
{
    IntegrityTree tree(SchemeKind::Morphable, 1024);
    RmccEngine engine(testConfig(), tree);
    engine.table(0).insertGroup(100);
    tree.level(0).relevelBlock(0, 103);   // 128 counters at 103
    tree.level(0).relevelBlock(128, 105); // 128 counters at 105
    // 256 covered counters over 8 memoized values = 32 per value.
    EXPECT_NEAR(engine.averageCoverage(0), 256.0 / 8.0, 1e-9);
}

// averageCoverage counts a block without reading its minors when all of
// its values lie inside or outside one merged range; check it against a
// per-entity read() count for every scheme, over blocks fully inside,
// fully outside and straddling ranges, overlapping and adjacent groups
// that merge, and a partial last block at every level.
TEST(Engine, AverageCoverageMatchesBruteForce)
{
    const SchemeKind kinds[] = {SchemeKind::SgxMonolithic, SchemeKind::SC64,
                                SchemeKind::Morphable};
    const CounterValue starts[] = {1000, 1200, 1240, 1500,
                                         1564, 2000, 2500, 2990};
    for (const SchemeKind kind : kinds) {
        for (const unsigned group_size : {8u, 64u}) {
            // 128 * 128 * 3 + 37 blocks: a partial last counter block at
            // levels 0 and 1 for every coverage.
            IntegrityTree tree(kind, 128 * 128 * 3 + 37);
            RmccConfig cfg = testConfig();
            cfg.memo.group_size = group_size;
            RmccEngine engine(cfg, tree);
            rmcc::util::Rng rng(11);
            tree.randomInit(rng, 1000);
            for (unsigned k = 0; k < 2; ++k) {
                CounterScheme &s = tree.level(k);
                const unsigned cov = s.coverage();
                const std::uint64_t blocks =
                    (s.entities() + cov - 1) / cov;
                // Whole blocks parked inside a group, just below one,
                // and far away from every group; every fourth block keeps
                // its randomInit state.
                const CounterValue parks[] = {3000, 2003, 1199, 5000,
                                              1210};
                for (std::uint64_t cb = 0; cb < blocks; ++cb) {
                    if (cb % 4 == 3)
                        continue;
                    const std::uint64_t idx = cb * cov;
                    const CounterValue target =
                        std::max(parks[cb % 5], s.blockMax(idx) + 1);
                    s.relevelBlock(idx, target);
                }
                // Small drifts make parked blocks straddle range edges.
                for (int w = 0; w < 2000; ++w) {
                    const std::uint64_t i = rng.nextBelow(s.entities());
                    s.write(i, s.read(i) + 1 + rng.nextBelow(5));
                }
                for (const CounterValue st : starts)
                    engine.table(k).insertGroup(st);

                std::set<CounterValue> distinct;
                for (const CounterValue st : starts)
                    for (unsigned d = 0; d < group_size; ++d)
                        distinct.insert(st + d);
                std::uint64_t covered = 0;
                for (std::uint64_t i = 0; i < s.entities(); ++i)
                    covered += distinct.count(s.read(i));
                ASSERT_GT(covered, 0u);
                EXPECT_EQ(engine.averageCoverage(k),
                          static_cast<double>(covered) /
                              static_cast<double>(distinct.size()))
                    << schemeKindName(kind) << " level " << k
                    << " group_size " << group_size;
            }
        }
    }
}

TEST(Engine, BudgetsAreIndependentPerLevel)
{
    IntegrityTree tree(SchemeKind::Morphable, 128 * 128 * 2);
    RmccConfig cfg = testConfig();
    cfg.budget.initial_pool_accesses = 0;
    RmccEngine engine(cfg, tree);
    engine.setBudgetPools(100.0);
    EXPECT_DOUBLE_EQ(engine.budget(0).available(), 100.0);
    EXPECT_DOUBLE_EQ(engine.budget(1).available(), 100.0);
}
