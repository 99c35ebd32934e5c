#include "counters/sc64.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rmcc::ctr
{

Sc64Scheme::Sc64Scheme(std::uint64_t n)
    : majors_((n + kCoverage - 1) / kCoverage), minors_(n)
{
}

bool
Sc64Scheme::encodable(std::uint64_t idx,
                      addr::CounterValue new_value) const
{
    const addr::CounterValue major = majors_[blockOf(idx)];
    return new_value >= major && new_value - major < kMinorRange;
}

addr::CounterValue
Sc64Scheme::blockMax(std::uint64_t idx) const
{
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    std::uint8_t m = 0;
    for (std::uint64_t i = first; i < last; ++i)
        m = std::max(m, minors_[i]);
    return majors_[cb] + m;
}

void
Sc64Scheme::relevel(addr::CounterBlockId cb, addr::CounterValue v)
{
    const auto [first, last] = blockRange(cb);
    majors_[cb] = v;
    std::memset(minors_.data() + first, 0, last - first);
    noteStored(v);
}

WriteResult
Sc64Scheme::write(std::uint64_t idx, addr::CounterValue new_value)
{
    assert(new_value > read(idx));
    const addr::CounterBlockId cb = blockOf(idx);
    if (encodable(idx, new_value)) {
        minors_[idx] =
            static_cast<std::uint8_t>(new_value - majors_[cb]);
        noteStored(new_value);
        return {new_value, false, 0};
    }
    // Overflow: relevel every encoded value in the block to the maximum
    // (paper Sec II-D), which zeroes all minors under a new major; every
    // covered entity's ciphertext must be recomputed with the new value.
    const auto [first, last] = blockRange(cb);
    const addr::CounterValue vmax = std::max(new_value, blockMax(idx));
    relevel(cb, vmax);
    ++overflows_;
    return {vmax, true, last - first};
}

WriteResult
Sc64Scheme::relevelBlock(std::uint64_t idx, addr::CounterValue target)
{
    assert(target > blockMax(idx));
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    relevel(cb, target);
    return {target, false, last - first};
}

std::uint64_t
Sc64Scheme::countInRanges(const ValueRanges &ranges) const
{
    // The minor width bounds every block's spread.
    return countSplitInRanges(
        majors_.data(), minors_.data(), minors_.size(), kCoverage, ranges,
        [](addr::CounterBlockId) { return kMinorRange - 1; });
}

void
Sc64Scheme::randomInit(util::Rng &shared_rng, addr::CounterValue mean)
{
    // Draw from a local copy: the byte-typed minor stores may alias the
    // caller's generator, which would force its state through memory on
    // every draw.
    util::Rng rng = shared_rng;
    for (addr::CounterBlockId cb = 0; cb < majors_.size(); ++cb) {
        const addr::CounterValue major =
            rng.nextInRange(mean / 2, mean + mean / 2);
        majors_[cb] = major;
        const auto [first, last] = blockRange(cb);
        std::uint64_t top = 0;
        for (std::uint64_t i = first; i < last; ++i) {
            const std::uint64_t minor = rng.nextBelow(kMinorRange);
            minors_[i] = static_cast<std::uint8_t>(minor);
            top = std::max(top, minor);
        }
        noteStored(major + top);
    }
    shared_rng = rng;
}

} // namespace rmcc::ctr
