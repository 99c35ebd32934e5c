#include "sim/functional_sim.hpp"

#include "fault/campaign.hpp"
#include "sim/obs_wiring.hpp"
#include "sim/rig.hpp"

namespace rmcc::sim
{

SimResult
runFunctional(const std::string &workload_name,
              const trace::TraceSource &trace, const SystemConfig &cfg)
{
    return runFunctional(workload_name, trace, cfg, nullptr);
}

// rmcc-lint: hot-path
SimResult
runFunctional(const std::string &workload_name,
              const trace::TraceSource &trace, const SystemConfig &cfg,
              fault::FaultCampaign *campaign)
{
    detail::SimRig rig(cfg);
    const std::shared_ptr<const FrontEndStream> stream =
        frontEndStream(trace, cfg);
    detail::preconditionRmcc(rig, cfg, trace, *stream);
    if (campaign != nullptr && cfg.secure) {
        campaign->bind(rig.tree, &rig.engine);
        rig.mc.attachObserver(campaign->oracle());
    }

    util::StatSet side; // simulator-side counters (TLB, LLC events)
    const util::StatHandle h_tlb_miss = side.handle("tlb.misses");
    const util::StatHandle h_llc_miss = side.handle("sim.llc_misses");
    const util::StatHandle h_llc_wb = side.handle("sim.llc_writebacks");
    util::StatSet mc_at_warm, side_at_warm;
    std::uint64_t instructions = 0, insts_at_warm = 0;

    // A loosely advancing pseudo-clock keeps the DRAM and overflow-engine
    // substrates in a sane regime; no timing conclusions are drawn from
    // functional runs.
    double fake_now = 0.0;

    // The drive walks the source's windows (one covering the whole
    // vector for in-RAM traces; mmap'd spans with next-window prefetch
    // for spilled ones) and pre-warms the page mapper per window from
    // the planning pass — both invisible to the simulated state.  It and
    // the LLC counts outlive the registry, whose probes read them (see
    // runTiming).
    detail::TraceDrive drive(trace, rig.mapper, nullptr);
    detail::LlcCounts llc;

    std::unique_ptr<obs::Registry> obs =
        obs::makeRunRegistry(detail::cellName(workload_name, cfg));
    if (obs) {
        drive.attachObs(obs.get());
        detail::registerRigProbes(*obs, rig, trace,
                                  [&fake_now] { return fake_now; }, llc,
                                  drive.ioStats());
        rig.mc.attachObs(obs.get());
    }

    // One-record lookahead (see runTiming): only the next record's LLC
    // miss is translated, which keeps the first-touch page order of a
    // pass over every record, and the prefetch hook is pure, so results
    // are bit-identical.  `ahead` carries the lookahead across window
    // boundaries.  Quiet records only count instructions; without a
    // registry or a fault campaign, both of which act per record, runs
    // of them are stepped through in a tight loop (see runTiming).
    FrontEndCursor fe(*stream);
    const bool quiet_runs = obs == nullptr && campaign == nullptr;
    bool more = drive.advance();
    addr::Addr next_paddr =
        more && fe.peekLlcMiss()
            ? rig.mapper.translate(drive.window().data[0].vaddr)
            : 0;
    std::size_t i = 0;
    while (more) {
        const trace::TraceWindow &w = drive.window();
        for (std::size_t k = 0; k < w.count; ++k, ++i) {
            // Cooperative cancellation: a cell past RMCC_CELL_TIMEOUT_MS
            // (or a SIGTERM'd suite) aborts here instead of running to
            // the end.
            if (i % detail::kPollStride == 0)
                util::pollCancel();
            const trace::Record &rec = w.data[k];
            if (i == cfg.warmup_records) {
                mc_at_warm = rig.mc.stats();
                side_at_warm = side;
                insts_at_warm = instructions;
            }
            instructions += rec.inst_gap + 1;

            const FrontEndEvent ev = fe.next();
            llc.add(ev);
            if (ev.tlb_miss)
                side.inc(h_tlb_miss);
            const addr::Addr paddr = next_paddr;
            const trace::Record *nxt =
                k + 1 < w.count ? &w.data[k + 1] : w.ahead;
            if (nxt != nullptr && fe.peekLlcMiss()) {
                next_paddr = rig.mapper.translate(nxt->vaddr);
                rig.mc.prefetchRead(next_paddr);
            }
            if (ev.hit_level == 4) {
                side.inc(h_llc_miss);
                rig.mc.read(paddr, fake_now);
                fake_now += 20.0;
            }
            if (ev.writebacks != 0) {
                side.inc(h_llc_wb);
                rig.mc.write(ev.writeback, fake_now);
                fake_now += 20.0;
            }
            if (campaign != nullptr && cfg.secure)
                campaign->afterRecord();
            if (obs)
                obs->tick();
            if (quiet_runs) {
                const std::size_t n = fe.quietRun(
                    w.data + k + 1,
                    detail::quietLimit(i + 1, w.count - k - 1,
                                       cfg.warmup_records),
                    [&instructions](const trace::Record &q) {
                        instructions += q.inst_gap + 1;
                    });
                k += n;
                i += n;
            }
        }
        more = drive.advance();
    }
    if (campaign != nullptr && cfg.secure)
        rig.mc.attachObserver(nullptr);
    if (obs) {
        rig.mc.attachObs(nullptr);
        obs->finish();
    }

    SimResult res;
    res.workload = workload_name;
    res.stats = rig.mc.stats().diff(mc_at_warm);
    res.stats.merge(side.diff(side_at_warm));
    res.instructions = instructions - insts_at_warm;

    // Lifetime/global state snapshots (not windowed).
    if (cfg.rmcc && cfg.secure) {
        res.stats.set("rmcc.avg_coverage_l0",
                      rig.engine.averageCoverage(0));
        res.stats.set("rmcc.group_insertions_l0",
                      static_cast<double>(rig.engine.groupInsertions(0)));
        res.stats.set("rmcc.budget_spent_l0",
                      static_cast<double>(
                          rig.engine.budget(0).totalSpent()));
    }
    if (cfg.secure) {
        res.stats.set("ctr.observed_max",
                      static_cast<double>(rig.tree.observedMax()));
        res.stats.set("ctr.init_max", static_cast<double>(rig.init_max));
        res.stats.set("ctr.overflows_total",
                      static_cast<double>(rig.tree.totalOverflows()));
    }
    return res;
}

} // namespace rmcc::sim
