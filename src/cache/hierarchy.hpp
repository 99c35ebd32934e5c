/**
 * @file
 * Three-level data cache hierarchy (L1D -> L2 -> LLC) producing the LLC
 * miss/writeback stream that drives the secure memory controller.
 */
#ifndef RMCC_CACHE_HIERARCHY_HPP
#define RMCC_CACHE_HIERARCHY_HPP

#include <array>
#include <cstdint>
#include <optional>

#include "cache/set_assoc.hpp"

namespace rmcc::cache
{

/** Sizing for one cache level. */
struct LevelConfig
{
    std::uint64_t size_bytes;
    unsigned assoc;
    double latency_ns; //!< Additive hit latency contribution (Table I).
};

/** Result of pushing one core access through the hierarchy. */
struct HierarchyResult
{
    unsigned hit_level = 0;      //!< 1..3 = cache level, 4 = memory.
    double hit_latency_ns = 0;   //!< Cumulative latency up to the hit level.
    bool llc_miss = false;       //!< Access must go to memory.
    //! Dirty LLC victims this access evicted, in eviction order: one
    //! each from the L1 victim's cascade, the L2 victim's cascade and
    //! the LLC's own allocation.
    unsigned writeback_count = 0;
    std::array<addr::Addr, 3> writebacks{};
    //! The last of those victims.  Replay loops that write back only
    //! this one drop the earlier victims of a multi-writeback access.
    std::optional<addr::Addr> memory_writeback;

    void addWriteback(addr::Addr victim)
    {
        writebacks[writeback_count++] = victim;
        memory_writeback = victim;
    }
};

/**
 * Inclusive-allocation writeback hierarchy.
 *
 * Victims propagate downward: a dirty L1 victim updates L2, a dirty L2
 * victim updates the LLC, and a dirty LLC victim surfaces as a memory
 * writeback for the secure MC to encrypt and count.
 */
class Hierarchy
{
  public:
    Hierarchy(const LevelConfig &l1, const LevelConfig &l2,
              const LevelConfig &llc);

    /** Push one physical-address access through L1 -> L2 -> LLC. */
    HierarchyResult access(addr::Addr paddr, bool is_write);

    /**
     * Prefetch the tag/recency rows the next access(paddr) will scan at
     * every level.  Pure (see SetAssocCache::prefetchSet): replay loops
     * may call it for a lookahead record without changing any result.
     */
    void prefetch(addr::Addr paddr) const
    {
        l1_.prefetchSet(paddr);
        l2_.prefetchSet(paddr);
        llc_.prefetchSet(paddr);
    }

    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &l2() const { return l2_; }
    const SetAssocCache &llc() const { return llc_; }

    /** Reset statistics on all levels. */
    void resetStats();

  private:
    SetAssocCache l1_;
    SetAssocCache l2_;
    SetAssocCache llc_;
    double lat1_, lat2_, lat3_;
};

} // namespace rmcc::cache

#endif // RMCC_CACHE_HIERARCHY_HPP
