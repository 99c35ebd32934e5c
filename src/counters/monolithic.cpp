#include "counters/monolithic.hpp"

#include <cassert>

#include "crypto/otp.hpp"

namespace rmcc::ctr
{

MonolithicScheme::MonolithicScheme(std::uint64_t n) : values_(n)
{
}

addr::CounterValue
MonolithicScheme::read(std::uint64_t idx) const
{
    return values_[idx];
}

WriteResult
MonolithicScheme::write(std::uint64_t idx, addr::CounterValue new_value)
{
    assert(new_value > values_[idx]);
    assert(new_value <= crypto::kCounterMask);
    set(idx, new_value);
    return {new_value, false, 0};
}

bool
MonolithicScheme::encodable(std::uint64_t idx,
                            addr::CounterValue new_value) const
{
    (void)idx;
    return new_value <= crypto::kCounterMask;
}

WriteResult
MonolithicScheme::relevelBlock(std::uint64_t idx, addr::CounterValue target)
{
    const std::uint64_t first = blockOf(idx) * kCoverage;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + kCoverage, values_.size());
    assert(target > blockMax(idx));
    for (std::uint64_t i = first; i < last; ++i)
        set(i, target);
    return {target, false, last - first};
}

std::uint64_t
MonolithicScheme::countInRanges(const ValueRanges &ranges) const
{
    // Sweep the dense array once per range with a branchless membership
    // test ((v - lo) < span catches lo <= v < hi in one unsigned compare);
    // the ranges are disjoint, so the indicator sums add up exactly, and
    // the branch-free inner loop vectorizes.
    const addr::CounterValue *v = values_.data();
    const std::uint64_t n = values_.size();
    std::uint64_t total = 0;
    for (const auto &[lo, hi] : ranges) {
        const addr::CounterValue span = hi - lo;
        std::uint64_t in = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            in += (v[i] - lo) < span ? 1u : 0u;
        total += in;
    }
    return total;
}

void
MonolithicScheme::randomInit(util::Rng &rng, addr::CounterValue mean)
{
    for (std::uint64_t i = 0; i < values_.size(); ++i)
        set(i, rng.nextInRange(mean / 2, mean + mean / 2));
}

} // namespace rmcc::ctr
