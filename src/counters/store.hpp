/**
 * @file
 * Counter storage shared by the counter-scheme models.
 *
 * Each scheme stores counters the way its 64 B block holds them: the
 * monolithic scheme one 64-bit value per entity, the split schemes one
 * shared major per block plus a narrow per-entity offset (minor).  Every
 * array starts zeroed without touching its pages, so a tree that is never
 * initialized or read (the non-secure configuration) costs no memory.
 */
#ifndef RMCC_COUNTERS_STORE_HPP
#define RMCC_COUNTERS_STORE_HPP

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "address/types.hpp"

namespace rmcc::ctr
{

/**
 * Fixed-size array of trivially-copyable elements whose all-zero bytes
 * are the initial state.  calloc hands large requests fresh zero pages
 * from the kernel, so allocation costs no fill and untouched pages no
 * resident memory.
 */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "zero bytes must be a valid element");

  public:
    explicit ZeroedArray(std::uint64_t n)
        : data_(static_cast<T *>(std::calloc(n ? n : 1, sizeof(T)))),
          size_(n)
    {
        if (data_ == nullptr)
            throw std::bad_alloc();
    }

    T &operator[](std::uint64_t i) { return data_.get()[i]; }
    const T &operator[](std::uint64_t i) const { return data_.get()[i]; }

    T *data() { return data_.get(); }
    const T *data() const { return data_.get(); }

    std::uint64_t size() const { return size_; }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };

    std::unique_ptr<T, Free> data_;
    std::uint64_t size_;
};

/**
 * Where a scheme keeps its counters in host memory: entity i's word
 * starts at words + (i << word_shift) bytes, and block cb's shared major
 * (split schemes only) at majors[cb].  Lets the memory controller
 * prefetch what a read will decode without a virtual call.
 */
struct CounterLayout
{
    const void *words = nullptr;
    unsigned word_shift = 0;
    const addr::CounterValue *majors = nullptr; //!< nullptr: no majors.

    /** Address of entity i's word. */
    const void *word(std::uint64_t i) const
    {
        return static_cast<const char *>(words) + (i << word_shift);
    }
};

/** Sorted, disjoint half-open counter-value intervals [first, second). */
using ValueRanges =
    std::vector<std::pair<addr::CounterValue, addr::CounterValue>>;

/**
 * Entities of a split-counter level (block cb holds entities
 * [cb * coverage, ...), values majors[cb] + offsets[i]) whose value lies
 * in one of the ranges.  max_off(cb) bounds block cb's offsets, so a
 * block wholly inside or outside the ranges is counted without reading
 * its offsets.
 */
template <typename Off, typename MaxOff>
std::uint64_t
countSplitInRanges(const addr::CounterValue *majors, const Off *offsets,
                   std::uint64_t entities, unsigned coverage,
                   const ValueRanges &ranges, MaxOff &&max_off)
{
    std::uint64_t total = 0;
    const std::uint64_t blocks = (entities + coverage - 1) / coverage;
    for (std::uint64_t cb = 0; cb < blocks; ++cb) {
        const addr::CounterValue lo = majors[cb];
        const addr::CounterValue hi = lo + max_off(cb); // inclusive
        // First range ending above the block's smallest value.
        auto r = std::upper_bound(
            ranges.begin(), ranges.end(), lo,
            [](addr::CounterValue v, const auto &range) {
                return v < range.second;
            });
        if (r == ranges.end() || r->first > hi)
            continue;
        const std::uint64_t first = cb * coverage;
        const std::uint64_t n =
            std::min<std::uint64_t>(coverage, entities - first);
        if (r->first <= lo && hi < r->second) {
            total += n;
            continue;
        }
        // The block straddles range edges: count its offsets against each
        // overlapping range in offset space, branch-free
        // ((o - olo) < span catches olo <= o < ohi in one compare).
        const Off *o = offsets + first;
        for (; r != ranges.end() && r->first <= hi; ++r) {
            const std::uint64_t olo = r->first > lo ? r->first - lo : 0;
            const std::uint64_t span =
                std::min<std::uint64_t>(r->second - lo, hi - lo + 1) - olo;
            std::uint64_t in = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                in += (std::uint64_t{o[i]} - olo) < span ? 1u : 0u;
            total += in;
        }
    }
    return total;
}

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_STORE_HPP
