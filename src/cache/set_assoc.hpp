/**
 * @file
 * Generic set-associative writeback cache model.
 *
 * Used for the CPU cache hierarchy (L1D/L2/LLC), the memory controller's
 * counter cache (which holds L0 counter blocks and integrity-tree nodes),
 * and — with a different line "address" space — the TLB.
 */
#ifndef RMCC_CACHE_SET_ASSOC_HPP
#define RMCC_CACHE_SET_ASSOC_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "address/types.hpp"

namespace rmcc::cache
{

/** Replacement policy for a set-associative cache. */
enum class ReplPolicy
{
    LRU,  //!< Least-recently-used (default everywhere in the paper).
    FIFO, //!< Insertion order; used in ablation tests.
};

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit = false;            //!< Line present before the access.
    bool evicted = false;        //!< A valid line was displaced.
    bool writeback = false;      //!< The displaced line was dirty.
    addr::Addr victim_addr = 0;  //!< Base address of the displaced line.
};

/**
 * Set-associative cache with allocate-on-miss and writeback semantics.
 */
class SetAssocCache
{
  public:
    /**
     * @param name stat label.
     * @param size_bytes total capacity; must be divisible by
     *        assoc * line_bytes.
     * @param assoc ways per set.
     * @param line_bytes line size (64 for all caches in the paper).
     * @param policy replacement policy.
     */
    SetAssocCache(std::string name, std::uint64_t size_bytes, unsigned assoc,
                  unsigned line_bytes = addr::kBlockSize,
                  ReplPolicy policy = ReplPolicy::LRU);

    /**
     * Access (and allocate on miss) the line containing address a.
     * Writes mark the line dirty.
     */
    AccessResult access(addr::Addr a, bool is_write);

    /**
     * Hit-only access: identical to access() when the line is present
     * (recency update, dirty marking, hit count); a no-op returning false
     * when it is not.  Lets a caller that handles misses itself (fetch,
     * then fillAbsent()) use one way-scan instead of a probe() + access()
     * pair.
     */
    bool accessIfPresent(addr::Addr a, bool is_write);

    /** Insert without an access (e.g. prefetch fill); returns eviction. */
    AccessResult fill(addr::Addr a, bool dirty);

    /**
     * fill() for a line known to be absent (e.g. right after
     * accessIfPresent() returned false): the same insertion and eviction
     * without fill()'s tag scan.  Precondition: probe(a) is false.
     */
    AccessResult fillAbsent(addr::Addr a, bool dirty);

    /** True if the line is present; does not update recency. */
    bool probe(addr::Addr a) const;

    /**
     * Hint that the set holding address a is about to be scanned: issues
     * software prefetches for its tag and recency-link rows.  Pure — no
     * state, stat, or replacement decision changes — so callers may
     * prefetch speculatively (e.g. the replay loop's next record) without
     * perturbing results.
     */
    void prefetchSet(addr::Addr a) const
    {
        const std::size_t base = setIndex(a) * assoc_;
        __builtin_prefetch(&tags_[base]);
        __builtin_prefetch(&links_[base]);
    }

    /**
     * Always false: way scans have one scalar loop.  Kept only so
     * provenance records that still report a SIMD-probe flag keep
     * building.
     */
    static bool simdProbesActive();

    /** Drop the line if present; returns true if it was dirty. */
    bool invalidate(addr::Addr a);

    /** Mark the line dirty if present (e.g. in-place metadata update). */
    void touchDirty(addr::Addr a);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t accesses() const { return hits_ + misses_; }

    std::uint64_t sizeBytes() const { return sets_count_ * assoc_ * line_; }
    unsigned associativity() const { return assoc_; }
    std::uint64_t sets() const { return sets_count_; }
    const std::string &name() const { return name_; }

    /** Reset statistics (state is kept); used after warm-up. */
    void resetStats();

  private:
    std::uint64_t setIndex(addr::Addr a) const
    {
        const addr::Addr tag = tagOf(a);
        return sets_pow2_ ? (tag & set_mask_) : (tag % sets_count_);
    }
    addr::Addr tagOf(addr::Addr a) const
    {
        return line_pow2_ ? (a >> line_shift_) : (a / line_);
    }

    //! Way index as stored in the recency links.
    using Way = std::uint8_t;
    //! Widest associativity the links can index.
    static constexpr unsigned kMaxAssoc =
        std::numeric_limits<Way>::max() + 1u;

    /** Recency neighbours of one valid way. */
    struct Link
    {
        Way prev; //!< More recent way (unused at the head).
        Way next; //!< Less recent way (unused at the tail).
    };

    /** Per-set list ends and fill count. */
    struct SetState
    {
        Way head = 0;              //!< Most recently linked way.
        Way tail = 0;              //!< Least recently linked: the victim.
        std::uint16_t filled = 0;  //!< Valid (= linked) ways.
    };

    /** Find the way holding tag (list-head hint first), or -1. */
    int findWay(std::uint64_t set, addr::Addr tag) const;

    /** Detach a linked way from its set's list. */
    static void unlink(SetState &st, Link *links, Way w);

    /**
     * Link an unlinked way in as the most recent.  st.filled must be 0
     * exactly when no way is linked.
     */
    static void linkAtHead(SetState &st, Link *links, Way w);

    /** Move a linked way to the head of its set's list. */
    void moveToHead(std::uint64_t set, unsigned way);

    /** Place tag in the set (which must not hold it); returns eviction. */
    AccessResult replaceIn(std::uint64_t set, addr::Addr tag, bool dirty);

    std::string name_;
    std::uint64_t sets_count_;
    unsigned assoc_;
    unsigned line_;
    ReplPolicy policy_;
    //! Power-of-two fast paths for the per-access index/tag math; the
    //! general divide/modulo remains for odd geometries used in tests.
    bool line_pow2_ = false, sets_pow2_ = false;
    unsigned line_shift_ = 0;
    std::uint64_t set_mask_ = 0;
    //! Tag stored in ways that hold no line.  Real tags are addresses
    //! divided by the line size, so ~0 is unreachable; encoding validity
    //! in the tag itself makes findWay a pure tag compare.
    static constexpr addr::Addr kInvalidTag = ~addr::Addr{0};

    //! Line state in structure-of-arrays form so the tag scan — the
    //! hottest loop in the whole simulator — touches one dense array
    //! instead of striding through 24-byte structs.
    std::vector<addr::Addr> tags_;
    std::vector<std::uint8_t> dirty_;
    //! Per-set doubly linked recency list over the valid ways, head most
    //! recent.  LRU relinks a way at the head on every touch, FIFO only
    //! on insertion, so the tail is always the victim of a full set.
    //! The head doubles as findWay's first guess; every link and end
    //! stays a way index (stale values included), so the guess is
    //! always in range, and it cannot match a set with no valid way.
    std::vector<Link> links_;
    std::vector<SetState> set_state_;
    std::uint64_t hits_ = 0, misses_ = 0, writebacks_ = 0;
};

} // namespace rmcc::cache

#endif // RMCC_CACHE_SET_ASSOC_HPP
