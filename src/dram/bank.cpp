#include "dram/bank.hpp"

#include <algorithm>

namespace rmcc::dram
{

double
Bank::issue(double t_ns, std::uint64_t row, const DramConfig &cfg,
            double burst_ns, RowOutcome &outcome)
{
    const double t = std::max(t_ns, ready_ns_);

    // 500 ns open-row timeout (Table I): the controller precharges idle
    // rows in the background, so a long-idle bank behaves as closed.
    // All-ones when expired, so the OR reads as -1 (precharged).
    const std::int64_t expired =
        -static_cast<std::int64_t>(t - last_use_ns_ > cfg.row_timeout_ns);
    const std::int64_t open = open_row_ | expired;

    // All three completion times, each with the expression (and so the
    // rounding) of its own path, indexed by the outcome: it is
    // unpredictable, so it picks a value instead of steering a branch.
    const std::uint64_t miss = open != static_cast<std::int64_t>(row);
    const std::uint64_t conflict = miss & (open >= 0 ? 1u : 0u);
    const double at[3] = {
        t + cfg.tCL_ns,                            // Hit
        t + cfg.tRCD_ns + cfg.tCL_ns,              // Closed
        t + cfg.tRP_ns + cfg.tRCD_ns + cfg.tCL_ns, // Conflict
    };
    const double data_at = at[miss + conflict];
    outcome = static_cast<RowOutcome>(miss + conflict);
    open_row_ = static_cast<std::int64_t>(row);
    last_use_ns_ = data_at;
    // The bank can overlap CAS of back-to-back hits; approximate command
    // occupancy with the burst time for hits and the full activate path
    // otherwise.
    ready_ns_ = data_at - cfg.tCL_ns + burst_ns;
    return data_at;
}

} // namespace rmcc::dram
