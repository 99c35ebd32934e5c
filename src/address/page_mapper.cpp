#include "address/page_mapper.hpp"

#include <bit>

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

Addr
PageMapper::translate(Addr vaddr)
{
    const std::uint64_t vpn = pageOf(vaddr);
    if (vpn == last_vpn_)
        return (last_frame_ << page_shift_) + (vaddr & (page_size_ - 1));
    auto it = table_.find(vpn);
    if (it == table_.end())
        it = table_.emplace(vpn, allocateFrame()).first;
    last_vpn_ = vpn;
    last_frame_ = it->second;
    return (it->second << page_shift_) + (vaddr & (page_size_ - 1));
}

} // namespace rmcc::addr
