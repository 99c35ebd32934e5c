#include "trace/traced_memory.hpp"

namespace rmcc::trace
{

TracedHeap::TracedHeap(TraceSink &sink, double mean_inst_gap,
                       std::uint64_t seed)
    : sink_(sink), mean_gap_(mean_inst_gap), rng_(seed)
{
}

addr::Addr
TracedHeap::allocate(std::uint64_t n, std::uint64_t elem_bytes,
                     const std::string &label)
{
    (void)label; // labels are for debugging/tests only
    // Align each range to a huge-page boundary so distinct arrays never
    // share a page, as a real allocator's mmap would behave for large
    // arrays.
    const addr::Addr aligned =
        (brk_ + addr::kHugePageSize - 1) & ~(addr::kHugePageSize - 1);
    brk_ = aligned + n * elem_bytes;
    return aligned;
}

void
TracedHeap::load(addr::Addr base, std::uint64_t index,
                 std::uint64_t elem_bytes)
{
    // Kernels poll done() once per step; accesses in the tail of the
    // step that filled the budget are not part of the trace.
    if (done())
        return;
    sink_.append(base + index * elem_bytes, false,
                 rng_.nextGeometric(mean_gap_));
}

void
TracedHeap::store(addr::Addr base, std::uint64_t index,
                  std::uint64_t elem_bytes)
{
    if (done())
        return;
    sink_.append(base + index * elem_bytes, true,
                 rng_.nextGeometric(mean_gap_));
}

} // namespace rmcc::trace
