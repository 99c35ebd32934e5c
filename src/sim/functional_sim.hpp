/**
 * @file
 * Functional (Pintool-like) simulator: drives the cache hierarchy, TLB,
 * counter tree, and RMCC engine over a trace without CPU/DRAM timing, to
 * measure hit rates, coverage, and traffic across workload lifetimes
 * (paper Sec III and the "Lifetime Characterization" methodology).
 */
#ifndef RMCC_SIM_FUNCTIONAL_SIM_HPP
#define RMCC_SIM_FUNCTIONAL_SIM_HPP

#include "sim/report.hpp"
#include "sim/system_config.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::fault
{
class FaultCampaign;
}

namespace rmcc::sim
{

/**
 * Run the functional simulation of one trace under one configuration.
 *
 * Statistics are windowed: the first cfg.warmup_records operations warm
 * caches, counters, and the memoization tables; the returned stats cover
 * only the remainder.
 */
SimResult runFunctional(const std::string &workload_name,
                        const trace::TraceSource &trace,
                        const SystemConfig &cfg);

/**
 * Same, with a fault campaign riding along: the campaign's detection
 * oracle observes the secure controller's data plane (verifying every
 * read against its crypto-functional shadow) and the campaign injects
 * and classifies faults as the trace advances.  Requires cfg.secure;
 * the campaign must be fresh (its tree is the one being driven) and
 * outlive the call.  Pass nullptr for a plain run.
 */
SimResult runFunctional(const std::string &workload_name,
                        const trace::TraceSource &trace,
                        const SystemConfig &cfg,
                        fault::FaultCampaign *campaign);

} // namespace rmcc::sim

#endif // RMCC_SIM_FUNCTIONAL_SIM_HPP
