/**
 * @file
 * Virtual-to-physical page mapping.
 *
 * The paper's Pintool study runs everything under 2 MB huge pages, noting
 * that Morphable's 128-block counter coverage spans two adjacent 4 KB
 * physical pages and is therefore penalized when the OS scatters 4 KB pages.
 * This mapper implements both regimes: identity-contiguous huge pages and a
 * randomized (fragmented) 4 KB mapping, so the effect is reproducible.
 */
#ifndef RMCC_ADDRESS_PAGE_MAPPER_HPP
#define RMCC_ADDRESS_PAGE_MAPPER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "address/types.hpp"
#include "util/rng.hpp"

namespace rmcc::addr
{

/** Page-size regime. */
enum class PageMode
{
    Small4K,  //!< 4 KB pages, randomized frame placement (fragmented).
    Huge2M,   //!< 2 MB pages, contiguous frame per page.
};

/**
 * Demand-allocation page table mapping virtual to physical addresses.
 */
class PageMapper
{
  public:
    /**
     * @param mode page-size regime.
     * @param phys_bytes physical region available for data frames.
     * @param seed randomization seed for 4 KB frame scattering.
     */
    PageMapper(PageMode mode, std::uint64_t phys_bytes,
               std::uint64_t seed = 1);

    /** Translate; allocates a frame on first touch of a page. */
    Addr translate(Addr vaddr);

    /** Page size in bytes for the current mode. */
    std::uint64_t pageSize() const { return page_size_; }

    /** Virtual page number of an address under the current mode. */
    std::uint64_t pageOf(Addr vaddr) const { return vaddr >> page_shift_; }

    /** Number of pages allocated so far. */
    std::size_t allocatedPages() const { return used_; }

    /** Highest physical address handed out plus one. */
    Addr physFootprint() const { return next_frame_ * pageSize(); }

  private:
    /** One page-table slot; a free slot holds kFreeVpn. */
    struct Slot
    {
        std::uint64_t vpn;
        std::uint64_t frame;
    };
    //! No page number reaches ~0: addresses are 64-bit and pages >= 4 KB.
    static constexpr std::uint64_t kFreeVpn = ~0ULL;
    static constexpr std::size_t kInitialSlots = 256;

    std::uint64_t allocateFrame();

    /** Frame of vpn, allocating one on its first touch. */
    std::uint64_t frameOf(std::uint64_t vpn);

    /** Slot where vpn's linear probe starts (Fibonacci hashing). */
    std::size_t homeSlot(std::uint64_t vpn) const
    {
        return static_cast<std::size_t>((vpn * 0x9e3779b97f4a7c15ULL) >>
                                        slot_shift_);
    }

    /** Double the table and re-place every entry. */
    void grow();

    PageMode mode_;
    std::uint64_t page_size_;
    unsigned page_shift_;
    std::uint64_t phys_pages_;
    std::uint64_t next_frame_ = 0;
    //! One-entry translation cache: consecutive records overwhelmingly hit
    //! the same page, and the mapping of an allocated page never changes.
    std::uint64_t last_vpn_ = ~0ULL;
    std::uint64_t last_frame_ = 0;
    //! Open-addressed vpn -> frame table: a power-of-two slot count,
    //! doubled once more than half the slots are used, so probes stay
    //! short and a lookup never allocates.
    std::vector<Slot> slots_;
    unsigned slot_shift_ = 0;  //!< 64 - log2(slots_.size()).
    std::size_t used_ = 0;     //!< Pages allocated.
    std::vector<std::uint64_t> free_frames_; // shuffled, 4 KB mode only
    util::Rng rng_;
};

} // namespace rmcc::addr

#endif // RMCC_ADDRESS_PAGE_MAPPER_HPP
