/**
 * @file
 * Traced replicas of the simulators' replay loops.
 *
 * tracedTiming() and tracedFunctional() repeat runTiming() and
 * runFunctional() call for call, through the same public entry points of
 * every layer, and time each of those calls with the TSC.  They must
 * return the very SimResult the untraced simulators return on the same
 * trace and configuration; the benchmark compares the two bit for bit,
 * so the program the ledger describes is the program that was measured.
 * The observability layer is assumed off (the benchmark pins RMCC_OBS).
 */
#ifndef RMCC_PERFBENCH_TRACED_HPP
#define RMCC_PERFBENCH_TRACED_HPP

#include <cstdint>
#include <string>

#include "sim/report.hpp"
#include "sim/system_config.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::fault
{
class FaultCampaign;
}

namespace perfbench
{

/** Host time spent in one kind of call, in TSC ticks. */
struct Span
{
    std::uint64_t ticks = 0;
    std::uint64_t calls = 0;
};

/** Host-time ledger of one traced cell. */
struct Ledger
{
    // Replay-loop spans, one per layer entry point.
    Span translate;    //!< PageMapper::translate
    Span tlb;          //!< Tlb::access
    Span hier_prefetch; //!< Hierarchy::prefetch
    Span hier_access;  //!< Hierarchy::access
    Span mc_prefetch;  //!< SecureMc::prefetchRead
    Span mc_read;      //!< SecureMc::read
    Span mc_write;     //!< SecureMc::write
    Span cpu;          //!< CpuModel::advance/recordLongLatency/stallUntil
    Span after_record; //!< FaultCampaign::afterRecord
    // Precondition pass: the RmccEngine calls it makes.
    Span engine;

    std::uint64_t records = 0;    //!< Records the measured loop replayed.
    std::uint64_t loop_ticks = 0; //!< Whole measured loop.
    double ns_per_tick = 0.0;     //!< Calibrated over the measured loop.
    double rig_s = 0.0;           //!< SimRig construction.
    double precondition_s = 0.0;  //!< Lifetime warm-up pass.
    double loop_s = 0.0;          //!< Measured loop (steady clock).
    double cell_s = 0.0;          //!< Whole traced cell.

    /** Fold another traced cell in (spans, times and records add). */
    void add(const Ledger &o);

    /** Span time in ns per replayed record. */
    double nsPerRecord(const Span &s) const;

    /** Loop time no span covers, in ns per replayed record. */
    double otherNsPerRecord() const;

    /** Whole measured loop, in ns per replayed record. */
    double loopNsPerRecord() const;

    /** Mean host ns of one precondition-pass engine call. */
    double engineNsPerCall() const;

  private:
    std::uint64_t spanTicks() const;
};

/** runTiming() with every layer call timed into `led`. */
rmcc::sim::SimResult tracedTiming(const std::string &workload_name,
                                  const rmcc::trace::TraceSource &trace,
                                  const rmcc::sim::SystemConfig &cfg,
                                  Ledger &led);

/** runFunctional() (optionally with a fault campaign), traced. */
rmcc::sim::SimResult
tracedFunctional(const std::string &workload_name,
                 const rmcc::trace::TraceSource &trace,
                 const rmcc::sim::SystemConfig &cfg,
                 rmcc::fault::FaultCampaign *campaign, Ledger &led);

} // namespace perfbench

#endif // RMCC_PERFBENCH_TRACED_HPP
