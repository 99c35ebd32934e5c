#include "traced.hpp"

#include <chrono>
#include <type_traits>
#include <utility>

#include <x86intrin.h>

#include "fault/campaign.hpp"
#include "sim/cpu_model.hpp"
#include "sim/rig.hpp"

namespace perfbench
{

using namespace rmcc;
using Clock = std::chrono::steady_clock;

namespace
{

inline std::uint64_t
ticks()
{
    return __rdtsc();
}

/** Call f() and charge its duration to s. */
template <class F>
inline auto
timed(Span &s, F &&f)
{
    const std::uint64_t t0 = ticks();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        s.ticks += ticks() - t0;
        ++s.calls;
    } else {
        auto r = f();
        s.ticks += ticks() - t0;
        ++s.calls;
        return r;
    }
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Times a measured loop on both clocks to calibrate TSC ticks. */
class LoopClock
{
  public:
    LoopClock() : t0_(Clock::now()), tsc0_(ticks()) {}

    void stop(Ledger &led) const
    {
        const std::uint64_t tsc1 = ticks();
        led.loop_s = secondsSince(t0_);
        led.loop_ticks = tsc1 - tsc0_;
        led.ns_per_tick = led.loop_ticks > 0
                              ? led.loop_s * 1e9 /
                                    static_cast<double>(led.loop_ticks)
                              : 0.0;
    }

  private:
    Clock::time_point t0_;
    std::uint64_t tsc0_;
};

/** sim::detail::preconditionRmcc with the engine calls timed. */
void
tracedPrecondition(sim::detail::SimRig &rig, const sim::SystemConfig &cfg,
                   const trace::TraceSource &trace, Ledger &led)
{
    if (!(cfg.secure && cfg.rmcc && cfg.precondition))
        return;
    const Clock::time_point t0 = Clock::now();
    rig.engine.setBudgetPools(cfg.precondition_budget_fraction *
                              static_cast<double>(cfg.trace_records));
    const unsigned cov0 = rig.tree.level(0).coverage();
    std::uint64_t ops = 0;
    cache::Hierarchy scratch(cfg.l1, cfg.l2, cfg.llc);
    std::uint64_t polled = 0;
    sim::detail::TraceDrive drive(trace, rig.mapper, nullptr);
    while (drive.advance()) {
        const trace::TraceWindow &w = drive.window();
        for (std::size_t k = 0; k < w.count; ++k) {
            if ((polled++ & 0x1fff) == 0)
                util::pollCancel();
            const trace::Record &rec = w.data[k];
            const addr::Addr paddr = rig.mapper.translate(rec.vaddr);
            const cache::HierarchyResult h =
                scratch.access(paddr, rec.is_write);
            if (h.llc_miss) {
                const addr::BlockId blk = addr::blockOf(paddr);
                timed(led.engine,
                      [&] { return rig.engine.onReadCounterUse(0, blk); });
                if (ops % 8 == 0)
                    timed(led.engine, [&] {
                        return rig.engine.onReadCounterUse(1, blk / cov0);
                    });
                ++ops;
                timed(led.engine, [&] { rig.engine.onDramAccess(); });
            }
            if (h.memory_writeback) {
                const addr::BlockId blk =
                    addr::blockOf(*h.memory_writeback);
                timed(led.engine,
                      [&] { return rig.engine.onWriteCounter(0, blk); });
                if (ops % 8 == 0)
                    timed(led.engine, [&] {
                        return rig.engine.onWriteCounter(1, blk / cov0);
                    });
                ++ops;
                timed(led.engine, [&] { rig.engine.onDramAccess(); });
            }
        }
    }
    rig.engine.setBudgetPools(0.0);
    led.precondition_s = secondsSince(t0);
}

} // namespace

std::uint64_t
Ledger::spanTicks() const
{
    std::uint64_t covered = 0;
    for (const Span *s : {&translate, &tlb, &hier_prefetch, &hier_access,
                          &mc_prefetch, &mc_read, &mc_write, &cpu,
                          &after_record})
        covered += s->ticks;
    return covered;
}

void
Ledger::add(const Ledger &o)
{
    for (auto [mine, theirs] :
         {std::pair{&translate, &o.translate}, {&tlb, &o.tlb},
          {&hier_prefetch, &o.hier_prefetch}, {&hier_access, &o.hier_access},
          {&mc_prefetch, &o.mc_prefetch}, {&mc_read, &o.mc_read},
          {&mc_write, &o.mc_write}, {&cpu, &o.cpu},
          {&after_record, &o.after_record}, {&engine, &o.engine}}) {
        mine->ticks += theirs->ticks;
        mine->calls += theirs->calls;
    }
    records += o.records;
    loop_ticks += o.loop_ticks;
    loop_s += o.loop_s;
    rig_s += o.rig_s;
    precondition_s += o.precondition_s;
    cell_s += o.cell_s;
    ns_per_tick = loop_ticks > 0
                      ? loop_s * 1e9 / static_cast<double>(loop_ticks)
                      : 0.0;
}

double
Ledger::nsPerRecord(const Span &s) const
{
    return records > 0 ? static_cast<double>(s.ticks) * ns_per_tick /
                             static_cast<double>(records)
                       : 0.0;
}

double
Ledger::otherNsPerRecord() const
{
    const std::uint64_t covered = spanTicks();
    Span other;
    other.ticks = covered < loop_ticks ? loop_ticks - covered : 0;
    return nsPerRecord(other);
}

double
Ledger::loopNsPerRecord() const
{
    return records > 0 ? loop_s * 1e9 / static_cast<double>(records) : 0.0;
}

double
Ledger::engineNsPerCall() const
{
    return engine.calls > 0 ? static_cast<double>(engine.ticks) *
                                  ns_per_tick /
                                  static_cast<double>(engine.calls)
                            : 0.0;
}

sim::SimResult
tracedTiming(const std::string &workload_name,
             const trace::TraceSource &trace, const sim::SystemConfig &cfg,
             Ledger &led)
{
    const Clock::time_point cell_t0 = Clock::now();
    sim::detail::SimRig rig(cfg);
    led.rig_s = secondsSince(cell_t0);
    tracedPrecondition(rig, cfg, trace, led);
    sim::CpuModel cpu(cfg.cpu);
    sim::detail::TraceDrive drive(trace, rig.mapper, nullptr);

    util::StatSet side;
    const util::StatHandle h_tlb_miss = side.handle("tlb.misses");
    const util::StatHandle h_llc_miss = side.handle("sim.llc_misses");
    const util::StatHandle h_llc_wb = side.handle("sim.llc_writebacks");
    util::StatSet mc_at_warm, side_at_warm;
    std::uint64_t insts_at_warm = 0;
    double time_at_warm = 0.0;
    const double llc_lookup_ns =
        cfg.l1.latency_ns + cfg.l2.latency_ns + cfg.llc.latency_ns;

    const LoopClock clock;
    bool more = drive.advance();
    addr::Addr next_paddr = 0;
    if (more) {
        const addr::Addr v0 = drive.window().data[0].vaddr;
        next_paddr =
            timed(led.translate, [&] { return rig.mapper.translate(v0); });
    }
    std::size_t i = 0;
    while (more) {
        const trace::TraceWindow &w = drive.window();
        for (std::size_t k = 0; k < w.count; ++k, ++i) {
            if ((i & 0x1fff) == 0)
                util::pollCancel();
            const trace::Record &rec = w.data[k];
            if (i == cfg.warmup_records) {
                mc_at_warm = rig.mc.stats();
                side_at_warm = side;
                insts_at_warm = cpu.instructions();
                time_at_warm = cpu.now();
            }

            const double issue = timed(
                led.cpu, [&] { return cpu.advance(rec.inst_gap); });
            if (!timed(led.tlb, [&] { return rig.tlb.access(rec.vaddr); }))
                side.inc(h_tlb_miss);
            const addr::Addr paddr = next_paddr;
            const trace::Record *nxt =
                k + 1 < w.count ? &w.data[k + 1] : w.ahead;
            if (nxt != nullptr) {
                next_paddr = timed(led.translate, [&] {
                    return rig.mapper.translate(nxt->vaddr);
                });
                timed(led.hier_prefetch,
                      [&] { rig.hier.prefetch(next_paddr); });
                timed(led.mc_prefetch,
                      [&] { rig.mc.prefetchRead(next_paddr); });
            }
            const cache::HierarchyResult h = timed(led.hier_access, [&] {
                return rig.hier.access(paddr, rec.is_write);
            });

            if (h.llc_miss) {
                side.inc(h_llc_miss);
                const mc::McReadResult r = timed(led.mc_read, [&] {
                    return rig.mc.read(paddr, issue + llc_lookup_ns);
                });
                timed(led.cpu, [&] { cpu.recordLongLatency(r.done_ns); });
            } else if (h.hit_level == 3) {
                timed(led.cpu, [&] {
                    cpu.recordLongLatency(issue + h.hit_latency_ns);
                });
            }
            if (h.memory_writeback) {
                side.inc(h_llc_wb);
                const double stall = timed(led.mc_write, [&] {
                    return rig.mc.write(*h.memory_writeback, cpu.now());
                });
                timed(led.cpu, [&] { cpu.stallUntil(stall); });
            }
        }
        more = drive.advance();
    }
    const double end = timed(led.cpu, [&] { return cpu.finish(); });
    led.records = i;
    clock.stop(led);

    sim::SimResult res;
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
    if (cfg.rmcc && cfg.secure)
        res.stats.set("rmcc.avg_coverage_l0",
                      rig.engine.averageCoverage(0));
    if (cfg.secure) {
        res.stats.set("ctr.observed_max",
                      static_cast<double>(rig.tree.observedMax()));
        res.stats.set("ctr.init_max", static_cast<double>(rig.init_max));
        res.stats.set("ctr.overflows_total",
                      static_cast<double>(rig.tree.totalOverflows()));
        res.stats.set("ovf.stall_ns",
                      rig.mc.overflowEngine().totalStallNs());
    }
    led.cell_s = secondsSince(cell_t0);
    return res;
}

sim::SimResult
tracedFunctional(const std::string &workload_name,
                 const trace::TraceSource &trace,
                 const sim::SystemConfig &cfg, fault::FaultCampaign *campaign,
                 Ledger &led)
{
    const Clock::time_point cell_t0 = Clock::now();
    sim::detail::SimRig rig(cfg);
    led.rig_s = secondsSince(cell_t0);
    tracedPrecondition(rig, cfg, trace, led);
    const bool faults = campaign != nullptr && cfg.secure;
    if (faults) {
        campaign->bind(rig.tree, &rig.engine);
        rig.mc.attachObserver(campaign->oracle());
    }

    util::StatSet side;
    const util::StatHandle h_tlb_miss = side.handle("tlb.misses");
    const util::StatHandle h_llc_miss = side.handle("sim.llc_misses");
    const util::StatHandle h_llc_wb = side.handle("sim.llc_writebacks");
    util::StatSet mc_at_warm, side_at_warm;
    std::uint64_t instructions = 0, insts_at_warm = 0;
    double fake_now = 0.0;
    sim::detail::TraceDrive drive(trace, rig.mapper, nullptr);

    const LoopClock clock;
    bool more = drive.advance();
    addr::Addr next_paddr = 0;
    if (more) {
        const addr::Addr v0 = drive.window().data[0].vaddr;
        next_paddr =
            timed(led.translate, [&] { return rig.mapper.translate(v0); });
    }
    std::size_t i = 0;
    while (more) {
        const trace::TraceWindow &w = drive.window();
        for (std::size_t k = 0; k < w.count; ++k, ++i) {
            if ((i & 0x1fff) == 0)
                util::pollCancel();
            const trace::Record &rec = w.data[k];
            if (i == cfg.warmup_records) {
                mc_at_warm = rig.mc.stats();
                side_at_warm = side;
                insts_at_warm = instructions;
            }
            instructions += rec.inst_gap + 1;

            if (!timed(led.tlb, [&] { return rig.tlb.access(rec.vaddr); }))
                side.inc(h_tlb_miss);
            const addr::Addr paddr = next_paddr;
            const trace::Record *nxt =
                k + 1 < w.count ? &w.data[k + 1] : w.ahead;
            if (nxt != nullptr) {
                next_paddr = timed(led.translate, [&] {
                    return rig.mapper.translate(nxt->vaddr);
                });
                timed(led.hier_prefetch,
                      [&] { rig.hier.prefetch(next_paddr); });
                timed(led.mc_prefetch,
                      [&] { rig.mc.prefetchRead(next_paddr); });
            }
            const cache::HierarchyResult h = timed(led.hier_access, [&] {
                return rig.hier.access(paddr, rec.is_write);
            });
            if (h.llc_miss) {
                side.inc(h_llc_miss);
                timed(led.mc_read,
                      [&] { return rig.mc.read(paddr, fake_now); });
                fake_now += 20.0;
            }
            if (h.memory_writeback) {
                side.inc(h_llc_wb);
                timed(led.mc_write, [&] {
                    return rig.mc.write(*h.memory_writeback, fake_now);
                });
                fake_now += 20.0;
            }
            if (faults)
                timed(led.after_record, [&] { campaign->afterRecord(); });
        }
        more = drive.advance();
    }
    led.records = i;
    clock.stop(led);
    if (faults)
        rig.mc.attachObserver(nullptr);

    sim::SimResult res;
    res.workload = workload_name;
    res.stats = rig.mc.stats().diff(mc_at_warm);
    res.stats.merge(side.diff(side_at_warm));
    res.instructions = instructions - insts_at_warm;
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
    led.cell_s = secondsSince(cell_t0);
    return res;
}

} // namespace perfbench
