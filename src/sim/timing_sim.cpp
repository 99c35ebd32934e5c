#include "sim/timing_sim.hpp"

#include "sim/cpu_model.hpp"
#include "sim/obs_wiring.hpp"
#include "sim/rig.hpp"

namespace rmcc::sim
{

// rmcc-lint: hot-path
SimResult
runTiming(const std::string &workload_name,
          const trace::TraceSource &trace, const SystemConfig &cfg)
{
    detail::SimRig rig(cfg);
    const std::shared_ptr<const FrontEndStream> stream =
        frontEndStream(trace, cfg);
    detail::preconditionRmcc(rig, cfg, trace, *stream);
    CpuModel cpu(cfg.cpu);

    // Windowed iteration + per-window mapper pre-warm (see TraceDrive);
    // invisible to the simulated state.  The drive and the LLC counts
    // are declared before the registry because its probes read them,
    // including from its destructor when a cancelled cell unwinds.
    detail::TraceDrive drive(trace, rig.mapper, nullptr);
    detail::LlcCounts llc;

    std::unique_ptr<obs::Registry> obs =
        obs::makeRunRegistry(detail::cellName(workload_name, cfg));
    if (obs) {
        drive.attachObs(obs.get());
        detail::registerRigProbes(*obs, rig, trace,
                                  [&cpu] { return cpu.now(); }, llc,
                                  drive.ioStats());
        rig.mc.attachObs(obs.get());
    }

    util::StatSet side;
    const util::StatHandle h_tlb_miss = side.handle("tlb.misses");
    const util::StatHandle h_llc_miss = side.handle("sim.llc_misses");
    const util::StatHandle h_llc_wb = side.handle("sim.llc_writebacks");
    util::StatSet mc_at_warm, side_at_warm;
    std::uint64_t insts_at_warm = 0;
    double time_at_warm = 0.0;

    const double llc_lookup_ns =
        cfg.l1.latency_ns + cfg.l2.latency_ns + cfg.llc.latency_ns;

    // One-record lookahead: when the stream says the next record misses
    // the LLC, each iteration translates that record's address and
    // prefetches the counter entries its read will scan, hiding the
    // counter store's memory stalls behind the current record's work.
    // Only LLC misses are translated, since only their reads use a
    // physical address (writebacks carry their victims').  The record
    // that first touches a page always misses the LLC — no block of a
    // frame that was never handed out can be cached — so translating
    // the misses in trace order allocates pages in the same first-touch
    // order as translating every record: page-frame assignment, and
    // therefore every physical address and result, is unchanged.
    //
    // Quiet records (FrontEndCursor::quietRun) only advance the CPU.
    // Without a registry, whose tick() must see every record, a run of
    // them is stepped through in a tight loop that stops at the window
    // end, the warm-up record and the next cancellation poll.
    FrontEndCursor fe(*stream);
    const bool quiet_runs = obs == nullptr;
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
                insts_at_warm = cpu.instructions();
                time_at_warm = cpu.now();
            }

            const double issue = cpu.advance(rec.inst_gap);
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
                const mc::McReadResult r =
                    rig.mc.read(paddr, issue + llc_lookup_ns);
                cpu.recordLongLatency(r.done_ns);
            } else if (ev.hit_level == 3) {
                // LLC hits are long enough to occupy the window.
                cpu.recordLongLatency(issue + llc_lookup_ns);
            }
            if (ev.writebacks != 0) {
                side.inc(h_llc_wb);
                const double stall = rig.mc.write(ev.writeback, cpu.now());
                cpu.stallUntil(stall);
            }
            if (obs)
                obs->tick();
            if (quiet_runs) {
                const std::size_t n = fe.quietRun(
                    w.data + k + 1,
                    detail::quietLimit(i + 1, w.count - k - 1,
                                       cfg.warmup_records),
                    [&cpu](const trace::Record &q) {
                        cpu.advance(q.inst_gap);
                    });
                k += n;
                i += n;
            }
        }
        more = drive.advance();
    }
    const double end = cpu.finish();
    if (obs) {
        rig.mc.attachObs(nullptr);
        obs->finish();
    }

    SimResult res;
    res.workload = workload_name;
    res.stats = rig.mc.stats().diff(mc_at_warm);
    res.stats.merge(side.diff(side_at_warm));
    res.instructions = cpu.instructions() - insts_at_warm;
    res.elapsed_ns = end - time_at_warm;
    res.stats.set("time.elapsed_ns", res.elapsed_ns);

    const dram::ChannelStats ds = rig.dram.aggregateStats();
    res.stats.set("dram.row_hits", static_cast<double>(ds.row_hits));
    res.stats.set("dram.row_conflicts",
                  static_cast<double>(ds.row_conflicts));

    if (cfg.rmcc && cfg.secure) {
        res.stats.set("rmcc.avg_coverage_l0",
                      rig.engine.averageCoverage(0));
    }
    if (cfg.secure) {
        res.stats.set("ctr.observed_max",
                      static_cast<double>(rig.tree.observedMax()));
        res.stats.set("ctr.init_max", static_cast<double>(rig.init_max));
        res.stats.set("ctr.overflows_total",
                      static_cast<double>(rig.tree.totalOverflows()));
        res.stats.set("ovf.stall_ns",
                      rig.mc.overflowEngine().totalStallNs());
    }
    return res;
}

} // namespace rmcc::sim
