/**
 * @file
 * Cache tests: set-associative behaviour (hits, LRU order, writebacks),
 * the three-level hierarchy's victim cascade, and the TLB.
 */
#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "cache/set_assoc.hpp"
#include "cache/tlb.hpp"

using namespace rmcc::cache;
using rmcc::addr::Addr;

namespace
{

//! FNV-1a over 64-bit words, for the golden digests.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void
fnvAdd(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

} // namespace

TEST(SetAssoc, HitAfterMiss)
{
    SetAssocCache c("t", 4096, 4);
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssoc, LruEvictionOrder)
{
    // 2 sets x 2 ways, 64 B lines: lines 0,2,4 map to set 0.
    SetAssocCache c("t", 256, 2);
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    c.access(0 * 64, false); // refresh 0: LRU victim is 2
    const AccessResult r = c.access(4 * 64, false);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_addr, 2u * 64);
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(2 * 64));
}

TEST(SetAssoc, DirtyEvictionIsWriteback)
{
    SetAssocCache c("t", 256, 2);
    c.access(0 * 64, true);
    c.access(2 * 64, false);
    const AccessResult r = c.access(4 * 64, false); // evicts dirty 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssoc, CleanEvictionIsNotWriteback)
{
    SetAssocCache c("t", 256, 2);
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    EXPECT_FALSE(c.access(4 * 64, false).writeback);
}

TEST(SetAssoc, FillAndInvalidate)
{
    SetAssocCache c("t", 4096, 4);
    c.fill(0x200, true);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_TRUE(c.invalidate(0x200)); // was dirty
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_FALSE(c.invalidate(0x200));
}

TEST(SetAssoc, TouchDirtyMarksResidentLine)
{
    SetAssocCache c("t", 256, 2);
    c.access(0, false);
    c.touchDirty(0);
    c.access(2 * 64, false);
    EXPECT_TRUE(c.access(4 * 64, false).writeback);
}

TEST(SetAssoc, FifoDiffersFromLru)
{
    SetAssocCache lru("l", 256, 2, 64, ReplPolicy::LRU);
    SetAssocCache fifo("f", 256, 2, 64, ReplPolicy::FIFO);
    for (SetAssocCache *c : {&lru, &fifo}) {
        c->access(0 * 64, false);
        c->access(2 * 64, false);
        c->access(0 * 64, false); // refresh 0 (no-op under FIFO)
    }
    EXPECT_EQ(lru.access(4 * 64, false).victim_addr, 2u * 64);
    EXPECT_EQ(fifo.access(4 * 64, false).victim_addr, 0u);
}

/** Property sweep over cache geometries: conservation of accounting. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{
};

TEST_P(CacheGeometry, AccountingConsistent)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache c("t", size, assoc);
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.access((x % (size * 8)) & ~63ULL, (x & 1) != 0);
    }
    EXPECT_EQ(c.hits() + c.misses(), 20000u);
    EXPECT_LE(c.writebacks(), c.misses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{4096, 1},
                      std::pair<std::uint64_t, unsigned>{8192, 4},
                      std::pair<std::uint64_t, unsigned>{32768, 8},
                      std::pair<std::uint64_t, unsigned>{131072, 32}));

TEST(SetAssoc, GoldenAccessDigests)
{
    // Victim choice on random streams, pinned to reference digests: a
    // full set must displace its least recently used line (under FIFO,
    // its first inserted), so any change to the way scan or the recency
    // list shows here.  Each access folds hit, evicted, writeback and
    // victim_addr; the final counts close it.
    struct Golden
    {
        std::uint64_t size;
        unsigned assoc;
        ReplPolicy policy;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {8192, 4, ReplPolicy::LRU, 0x6e1278f3593a0d7eULL},
        {32768, 8, ReplPolicy::LRU, 0xd49b36c9e45cb028ULL},
        {131072, 16, ReplPolicy::LRU, 0xbd155224e3313aceULL},
        {4096, 2, ReplPolicy::LRU, 0xf9e66065477038d0ULL},
        {32768, 8, ReplPolicy::FIFO, 0x298e7f477a5afc23ULL},
        {131072, 32, ReplPolicy::LRU, 0x8ace378dac37fbcaULL},
    };
    for (const Golden &g : goldens) {
        SetAssocCache c("g", g.size, g.assoc, 64, g.policy);
        std::uint64_t h = kFnvBasis;
        const auto add = [&h](std::uint64_t v) { fnvAdd(h, v); };
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < 30000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const Addr a = (x % (g.size * 8)) & ~63ULL;
            const AccessResult r = c.access(a, (x & 2) != 0);
            add(static_cast<std::uint64_t>(r.hit) |
                static_cast<std::uint64_t>(r.evicted) << 1 |
                static_cast<std::uint64_t>(r.writeback) << 2);
            add(r.victim_addr);
        }
        add(c.hits());
        add(c.misses());
        add(c.writebacks());
        EXPECT_EQ(h, g.digest)
            << "size=" << g.size << " assoc=" << g.assoc << " fifo="
            << (g.policy == ReplPolicy::FIFO) << std::hex << " digest 0x"
            << h;
    }
}

TEST(SetAssoc, GoldenMixedOpDigests)
{
    // Every operation that reads or moves recency, interleaved on random
    // streams and pinned to reference digests: access, accessIfPresent,
    // fill (present or absent), fillAbsent, invalidate, touchDirty and
    // probe.  Invalidations punch holes into full sets, so unlinking a
    // way and relinking it on refill both decide later victims.  LRU and
    // FIFO run at every associativity; the 6- and 12-set geometries take
    // the modulo set index.
    struct Golden
    {
        std::uint64_t sets;
        unsigned assoc;
        ReplPolicy policy;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {16, 1, ReplPolicy::LRU, 0xfdcd5962cae79d3bULL},
        {12, 1, ReplPolicy::FIFO, 0xe5e598db005872daULL},
        {12, 2, ReplPolicy::LRU, 0xa7f9a3cdad3f92b3ULL},
        {16, 2, ReplPolicy::FIFO, 0xd1c945cededc3af8ULL},
        {8, 8, ReplPolicy::LRU, 0xa479985dbde2dbb9ULL},
        {6, 8, ReplPolicy::FIFO, 0xf714d3b84a2ad9f4ULL},
        {6, 16, ReplPolicy::LRU, 0xf9abee1a8b264d56ULL},
        {8, 16, ReplPolicy::FIFO, 0x8bdf236b0812b99eULL},
        {4, 32, ReplPolicy::LRU, 0x3236e548aa44a01dULL},
        {6, 32, ReplPolicy::FIFO, 0x5d312f2cc8cbe1beULL},
    };
    for (const Golden &g : goldens) {
        const std::uint64_t size = g.sets * g.assoc * 64;
        SetAssocCache c("g", size, g.assoc, 64, g.policy);
        std::uint64_t h = kFnvBasis;
        const auto addResult = [&h](const AccessResult &r) {
            fnvAdd(h, static_cast<std::uint64_t>(r.hit) |
                          static_cast<std::uint64_t>(r.evicted) << 1 |
                          static_cast<std::uint64_t>(r.writeback) << 2);
            fnvAdd(h, r.victim_addr);
        };
        std::uint64_t x = 0x2545f4914f6cdd1dULL ^ size ^ g.assoc;
        for (int i = 0; i < 40000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Three times the capacity: hits, misses and evictions mix.
            const Addr a = (x % (size * 3)) & ~63ULL;
            const bool dirty = (x >> 40) & 1;
            switch ((x >> 48) % 8) {
              case 0:
              case 1:
                addResult(c.access(a, dirty));
                break;
              case 2:
                fnvAdd(h, c.accessIfPresent(a, dirty) ? 1 : 2);
                break;
              case 3:
                addResult(c.fill(a, dirty));
                break;
              case 4:
                if (c.probe(a))
                    fnvAdd(h, 3);
                else
                    addResult(c.fillAbsent(a, dirty));
                break;
              case 5:
                fnvAdd(h, c.invalidate(a) ? 4 : 5);
                break;
              case 6:
                c.touchDirty(a);
                break;
              default:
                fnvAdd(h, c.probe(a) ? 6 : 7);
                break;
            }
        }
        fnvAdd(h, c.hits());
        fnvAdd(h, c.misses());
        fnvAdd(h, c.writebacks());
        EXPECT_EQ(h, g.digest)
            << "sets=" << g.sets << " assoc=" << g.assoc << " fifo="
            << (g.policy == ReplPolicy::FIFO) << std::hex << " digest 0x"
            << h;
    }
}

TEST(SetAssoc, RejectsGeometryWithZeroSets)
{
    // A 0-byte cache divides evenly by assoc*line but leaves no set to
    // index; it must be refused as a configuration error, not reach the
    // set-index modulo.
    EXPECT_EXIT(SetAssocCache("t", 0, 4), ::testing::ExitedWithCode(1),
                "zero sets");
}

TEST(SetAssoc, RejectsAssociativityTheLinksCannotIndex)
{
    // Recency links hold a way index in one byte: 256 ways is the widest
    // geometry they can address, and anything wider is a configuration
    // error naming the cache, not a silent wrap of the links.
    SetAssocCache widest("widest", 256 * 64, 256);
    EXPECT_EQ(widest.associativity(), 256u);
    EXPECT_EXIT(SetAssocCache("wide", 257 * 64, 257),
                ::testing::ExitedWithCode(1), "cache wide: associativity 257");
}

TEST(Hierarchy, HitLevelsAndLatencies)
{
    Hierarchy h({1024, 2, 2.0}, {4096, 4, 4.0}, {16384, 8, 17.0});
    const HierarchyResult m = h.access(0, false);
    EXPECT_EQ(m.hit_level, 4u);
    EXPECT_TRUE(m.llc_miss);
    const HierarchyResult l1 = h.access(0, false);
    EXPECT_EQ(l1.hit_level, 1u);
    EXPECT_DOUBLE_EQ(l1.hit_latency_ns, 2.0);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    Hierarchy h({128, 1, 2.0}, {4096, 4, 4.0}, {16384, 8, 17.0});
    h.access(0, false);        // miss everywhere, fills all levels
    h.access(2 * 64, false);   // same L1 set (2 sets of 1 way): evicts 0
    h.access(4 * 64, false);
    const HierarchyResult r = h.access(0, false);
    EXPECT_EQ(r.hit_level, 2u);
    EXPECT_DOUBLE_EQ(r.hit_latency_ns, 6.0);
}

TEST(Hierarchy, DirtyDataEventuallyWritesBackToMemory)
{
    // Tiny hierarchy: writes must surface as memory writebacks once
    // capacity is exceeded everywhere.
    Hierarchy h({128, 1, 2.0}, {256, 1, 4.0}, {512, 1, 17.0});
    int wbs = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const HierarchyResult r = h.access(i * 64, true);
        wbs += r.memory_writeback.has_value();
    }
    EXPECT_GT(wbs, 0);
}

TEST(Tlb, HitsAndMisses)
{
    Tlb tlb(16, 4, 4096);
    EXPECT_FALSE(tlb.access(0));
    EXPECT_TRUE(tlb.access(100));    // same page
    EXPECT_FALSE(tlb.access(4096)); // next page
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, HugePagesCoverMore)
{
    Tlb small(64, 4, 4096);
    Tlb huge(64, 4, 2 * 1024 * 1024);
    std::uint64_t small_misses = 0, huge_misses = 0;
    for (std::uint64_t a = 0; a < (16ULL << 20); a += 8192) {
        small_misses += !small.access(a);
        huge_misses += !huge.access(a);
    }
    EXPECT_GT(small_misses, 10 * huge_misses);
}
