#include "core/candidate_monitor.hpp"

namespace rmcc::core
{

CandidateMonitor::CandidateMonitor(const MonitorConfig &cfg) : cfg_(cfg)
{
    arm(0);
}

void
CandidateMonitor::arm(addr::CounterValue max_in_table)
{
    armed_max_ = max_in_table;
    candidates_.clear();
    // X+1+8i for i = 0..16: fine-grained rungs just above the table.
    for (unsigned i = 0; i <= 16; ++i)
        candidates_.push_back(max_in_table + 1 + 8ULL * i);
    // X+129+2^j for j = 4..17: exponential rungs reaching ~131 K above.
    for (unsigned j = 4; j <= 17; ++j)
        candidates_.push_back(max_in_table + 129 + (1ULL << j));
    rung_hist_.assign(candidates_.size() + 1, 0);
    total_reads_ = 0;
    high_reads_ = 0;
}

void
CandidateMonitor::observeRead(addr::CounterValue v)
{
    ++total_reads_;
    if (v <= armed_max_) {
        // Every rung is above the armed maximum, so none is <= v.
        ++rung_hist_[0];
        return;
    }
    ++high_reads_;
    // Branch-free binary search for the number of rungs <= v (the
    // ladder is strictly ascending).
    const addr::CounterValue *base = candidates_.data();
    std::size_t n = candidates_.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base = base[half] <= v ? base + half : base;
        n -= half;
    }
    const std::size_t rungs_at_or_below =
        static_cast<std::size_t>(base - candidates_.data()) +
        (*base <= v ? 1 : 0);
    ++rung_hist_[rungs_at_or_below];
}

std::optional<addr::CounterValue>
CandidateMonitor::takeSelection()
{
    if (high_reads_ < cfg_.trigger_reads)
        return std::nullopt;
    const double goal =
        cfg_.coverage_goal * static_cast<double>(total_reads_);
    // Smallest candidate covering >= 98% of observed reads; if even the
    // top rung falls short, take the top rung (the ladder re-arms higher
    // next time and ratchets up).  A read is below rung c exactly when
    // at most c rungs are <= it, so rung c's count is a prefix sum.
    std::uint64_t below = 0;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
        below += rung_hist_[c];
        if (static_cast<double>(below) >= goal)
            return candidates_[c];
    }
    return candidates_.back();
}

} // namespace rmcc::core
