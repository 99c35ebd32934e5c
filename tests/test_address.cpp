/**
 * @file
 * Address-space tests: block math, memory layout (counter regions per
 * level), and virtual-to-physical page mapping in both regimes.
 */
#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "address/layout.hpp"
#include "address/page_mapper.hpp"

using namespace rmcc::addr;

TEST(Types, BlockMath)
{
    EXPECT_EQ(blockOf(0), 0u);
    EXPECT_EQ(blockOf(63), 0u);
    EXPECT_EQ(blockOf(64), 1u);
    EXPECT_EQ(blockBase(3), 192u);
    EXPECT_EQ(fromNs(15.0), 15000u);
    EXPECT_DOUBLE_EQ(toNs(2500), 2.5);
}

TEST(Layout, LevelSizesMorphableArity)
{
    // 1 GB of data, 128-coverage: L0 = 2^24/128 blocks, etc.
    const std::uint64_t data_blocks = (1ULL << 30) / kBlockSize;
    MemoryLayout layout(1ULL << 30, 128, 128);
    EXPECT_EQ(layout.dataBlocks(), data_blocks);
    EXPECT_EQ(layout.levelBlocks(0), data_blocks / 128);
    EXPECT_EQ(layout.levelBlocks(1), data_blocks / 128 / 128);
    EXPECT_EQ(layout.levelBlocks(2), 8u); // on-chip root covers these
    EXPECT_EQ(layout.levels(), 3u);
}

TEST(Layout, PaperScale128GBHasFourLevels)
{
    // 128 GB protected data under Morphable: 4 in-memory tree levels
    // (L0..L3), as Sec V states.
    MemoryLayout layout(128ULL << 30, 128, 128);
    EXPECT_EQ(layout.levels(), 4u);
}

TEST(Layout, CounterRegionsDisjointAndOrdered)
{
    MemoryLayout layout(16ULL << 20, 128, 128);
    const Addr l0 = layout.counterBlockAddr(0, 0);
    EXPECT_EQ(l0, layout.dataBlocks() * kBlockSize);
    const Addr l0_last =
        layout.counterBlockAddr(0, layout.levelBlocks(0) - 1);
    const Addr l1 = layout.counterBlockAddr(1, 0);
    EXPECT_GT(l1, l0_last);
    EXPECT_TRUE(layout.isCounterAddr(l0));
    EXPECT_FALSE(layout.isCounterAddr(0));
    EXPECT_FALSE(layout.isCounterAddr(l0 - 1));
}

TEST(Layout, CounterBlockOfCoverage)
{
    MemoryLayout layout(16ULL << 20, 64, 64);
    EXPECT_EQ(layout.counterBlockOf(0), 0u);
    EXPECT_EQ(layout.counterBlockOf(63), 0u);
    EXPECT_EQ(layout.counterBlockOf(64), 1u);
    EXPECT_EQ(layout.parentOf(63), 0u);
    EXPECT_EQ(layout.parentOf(64), 1u);
}

TEST(Layout, TotalBytesAccountsAllLevels)
{
    MemoryLayout layout(8ULL << 20, 128, 128);
    std::uint64_t blocks = layout.dataBlocks();
    for (unsigned l = 0; l < layout.levels(); ++l)
        blocks += layout.levelBlocks(l);
    EXPECT_EQ(layout.totalBytes(), blocks * kBlockSize);
}

TEST(PageMapper, HugePagesAreContiguous)
{
    PageMapper m(PageMode::Huge2M, 1ULL << 30);
    const Addr p0 = m.translate(0);
    const Addr p1 = m.translate(kHugePageSize);
    const Addr p2 = m.translate(2 * kHugePageSize);
    // Bump allocation: adjacent virtual huge pages stay adjacent.
    EXPECT_EQ(p1 - p0, kHugePageSize);
    EXPECT_EQ(p2 - p1, kHugePageSize);
}

TEST(PageMapper, TranslationStableAndOffsetPreserving)
{
    PageMapper m(PageMode::Small4K, 1ULL << 26, 7);
    const Addr a = m.translate(0x12345);
    EXPECT_EQ(m.translate(0x12345), a);
    EXPECT_EQ(a % kSmallPageSize, 0x12345 % kSmallPageSize);
}

TEST(PageMapper, SmallPagesFragment)
{
    // Adjacent 4 KB virtual pages land on scattered frames.
    PageMapper m(PageMode::Small4K, 1ULL << 26, 7);
    int adjacent = 0;
    Addr prev = m.translate(0);
    for (std::uint64_t p = 1; p < 64; ++p) {
        const Addr cur = m.translate(p * kSmallPageSize);
        adjacent += (cur > prev ? cur - prev : prev - cur) ==
                    kSmallPageSize;
        prev = cur;
    }
    EXPECT_LT(adjacent, 8);
}

TEST(PageMapper, DistinctPagesGetDistinctFrames)
{
    PageMapper m(PageMode::Small4K, 1ULL << 24, 3);
    std::set<Addr> frames;
    for (std::uint64_t p = 0; p < 512; ++p)
        frames.insert(m.translate(p * kSmallPageSize) / kSmallPageSize);
    EXPECT_EQ(frames.size(), 512u);
}

TEST(PageMapper, AllocationCountsPages)
{
    PageMapper m(PageMode::Huge2M, 1ULL << 30);
    m.translate(0);
    m.translate(100);           // same page
    m.translate(kHugePageSize); // new page
    EXPECT_EQ(m.allocatedPages(), 2u);
}

TEST(PageMapper, GoldenFrameDigests)
{
    // translate() over a seeded page stream, pinned to reference digests.
    // The stream draws from 16 K pages, half dense and half scattered
    // across a 2^34-page space, so the page table grows several times and
    // its probe sequences collide; revisits check that a frame, once
    // handed out, never moves.  Frames go out in first-touch order, so
    // any change to allocation order shows in the digest.
    struct Golden
    {
        PageMode mode;
        std::uint64_t phys_bytes;
        std::uint64_t digest;
        std::size_t pages;
    };
    const Golden goldens[] = {
        {PageMode::Small4K, 1ULL << 27, 0xc52cca9c78dc8837ULL, 15626},
        {PageMode::Huge2M, 1ULL << 36, 0x658d3673984fc794ULL, 15626},
    };
    for (const Golden &g : goldens) {
        PageMapper m(g.mode, g.phys_bytes, 11);
        // FNV-1a over 64-bit words.
        std::uint64_t h = 0xcbf29ce484222325ULL;
        const auto add = [&h](std::uint64_t v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        };
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < 60000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint64_t pick = x % 16000;
            const std::uint64_t vpn =
                pick % 2 ? pick
                         : (pick * 0x9e3779b97f4a7c15ULL) >> 30;
            const Addr vaddr =
                (vpn << std::countr_zero(m.pageSize())) +
                ((x >> 40) & (m.pageSize() - 1));
            add(m.translate(vaddr));
        }
        add(m.allocatedPages());
        add(m.physFootprint());
        EXPECT_EQ(m.allocatedPages(), g.pages);
        EXPECT_EQ(h, g.digest)
            << "huge=" << (g.mode == PageMode::Huge2M) << std::hex
            << " digest 0x" << h;
    }
}
