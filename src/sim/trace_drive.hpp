/**
 * @file
 * Internal: windowed trace iteration shared by both simulators and the
 * precondition pass.
 *
 * TraceDrive walks a TraceSource's windows, and at every window boundary
 *
 *  1. pre-warms the page mapper from the planning pass (translating the
 *     pages first touched in the incoming window, in first-touch order —
 *     frame assignment is identical to lazy demand allocation, so
 *     results stay bit-identical; see trace_plan.hpp), and
 *  2. records the host time the advance blocked on trace I/O into the
 *     TraceIo latency histogram (spilled sources only — the in-RAM
 *     cursor has no I/O and registers nothing).
 *
 * The per-record inner loops stay in the simulators; all window
 * bookkeeping lives here so the three replay sites cannot drift apart.
 */
#ifndef RMCC_SIM_TRACE_DRIVE_HPP
#define RMCC_SIM_TRACE_DRIVE_HPP

#include <chrono>

#include "address/page_mapper.hpp"
#include "obs/registry.hpp"
#include "trace/trace_plan.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::sim::detail
{

class TraceDrive
{
  public:
    /**
     * @param src trace to replay (borrowed).
     * @param mapper the rig's page mapper, pre-warmed per window when
     *        the source carries a plan.
     * @param obs run registry for the TraceIo histogram; may be null.
     */
    TraceDrive(const trace::TraceSource &src, addr::PageMapper &mapper,
               obs::Registry *obs)
        : mapper_(mapper), obs_(obs), plan_(src.plan()),
          cur_(src.cursor())
    {
    }

    /**
     * Start timing trace I/O into obs (may be null).  The replay loops
     * build the drive before their registry, so the registry, whose
     * destructor still reads the spill probes over this drive's cursor,
     * is destroyed first even when a cancelled cell unwinds.
     */
    void attachObs(obs::Registry *obs) { obs_ = obs; }

    /** Advance to the next window; false at end of trace. */
    bool advance()
    {
        using clock = std::chrono::steady_clock;
        const bool timed = obs_ != nullptr && cur_->ioStats() != nullptr;
        const auto t0 = timed ? clock::now() : clock::time_point{};
        w_ = cur_->next();
        if (w_.count == 0)
            return false;
        if (plan_ != nullptr) {
            const std::size_t wi = plan_->windowIndexOf(w_.first);
            const auto span = plan_->pageSpan(wi);
            // translate() allocates only on first touch, so re-listing
            // a page the lookahead already crossed into is a no-op.
            for (std::size_t k = 0; k < span.second; ++k)
                mapper_.translate(span.first[k]);
        }
        if (timed)
            obs_->recordLatency(
                obs::LatencyHist::TraceIo,
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - t0)
                        .count()));
        return true;
    }

    /** The current window (valid after advance() returned true). */
    const trace::TraceWindow &window() const { return w_; }

    /** Cursor I/O counters; nullptr for in-RAM sources. */
    const trace::TraceIoStats *ioStats() const { return cur_->ioStats(); }

  private:
    addr::PageMapper &mapper_;
    obs::Registry *obs_;
    const trace::TracePlan *plan_;
    std::unique_ptr<trace::TraceCursor> cur_;
    trace::TraceWindow w_;
};

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_TRACE_DRIVE_HPP
