#include "address/page_mapper.hpp"

#include <bit>
#include <utility>

#include "util/log.hpp"

namespace rmcc::addr
{

PageMapper::PageMapper(PageMode mode, std::uint64_t phys_bytes,
                       std::uint64_t seed)
    : mode_(mode),
      page_size_(mode == PageMode::Huge2M ? kHugePageSize : kSmallPageSize),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_size_))),
      rng_(seed)
{
    phys_pages_ = phys_bytes / pageSize();
    if (phys_pages_ == 0)
        util::fatal("PageMapper: physical size smaller than one page");
    slots_.assign(kInitialSlots, Slot{kFreeVpn, 0});
    slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(kInitialSlots));
}

std::uint64_t
PageMapper::allocateFrame()
{
    std::uint64_t frame;
    if (mode_ == PageMode::Huge2M) {
        // Contiguous allocation: huge pages come from a bump pointer,
        // so adjacent virtual pages stay adjacent physically.
        frame = next_frame_++;
    } else {
        // Fragmented allocation: pick a random unused frame, emulating
        // a long-running system's scattered 4 KB frame pool.
        if (free_frames_.empty()) {
            free_frames_.reserve(phys_pages_);
            for (std::uint64_t f = 0; f < phys_pages_; ++f)
                free_frames_.push_back(f);
            // Fisher-Yates shuffle.
            for (std::uint64_t i = phys_pages_ - 1; i > 0; --i) {
                const auto j = rng_.nextBelow(i + 1);
                std::swap(free_frames_[i], free_frames_[j]);
            }
        }
        if (next_frame_ >= free_frames_.size())
            util::fatal("PageMapper: out of physical frames");
        frame = free_frames_[next_frame_++];
    }
    if (next_frame_ > phys_pages_)
        util::fatal("PageMapper: out of physical frames");
    return frame;
}

void
PageMapper::grow()
{
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{kFreeVpn, 0});
    --slot_shift_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &s : old) {
        if (s.vpn == kFreeVpn)
            continue;
        std::size_t i = homeSlot(s.vpn);
        while (slots_[i].vpn != kFreeVpn)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

std::uint64_t
PageMapper::frameOf(std::uint64_t vpn)
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = homeSlot(vpn);
    while (slots_[i].vpn != vpn) {
        if (slots_[i].vpn == kFreeVpn) {
            // First touch: allocate, then grow past half load, which
            // keeps at least half the slots free for probes to end on.
            const std::uint64_t frame = allocateFrame();
            slots_[i] = {vpn, frame};
            if (2 * ++used_ > slots_.size())
                grow();
            return frame;
        }
        i = (i + 1) & mask;
    }
    return slots_[i].frame;
}

Addr
PageMapper::translate(Addr vaddr)
{
    const std::uint64_t vpn = pageOf(vaddr);
    if (vpn != last_vpn_) {
        last_frame_ = frameOf(vpn);
        last_vpn_ = vpn;
    }
    return (last_frame_ << page_shift_) + (vaddr & (page_size_ - 1));
}

} // namespace rmcc::addr
