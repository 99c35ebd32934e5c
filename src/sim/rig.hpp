/**
 * @file
 * Internal: the assembled component stack ("rig") both simulators drive.
 */
#ifndef RMCC_SIM_RIG_HPP
#define RMCC_SIM_RIG_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "address/page_mapper.hpp"
#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "core/rmcc_engine.hpp"
#include "counters/tree.hpp"
#include "crypto/dispatch.hpp"
#include "dram/ddr4.hpp"
#include "mc/recovery.hpp"
#include "mc/secure_mc.hpp"
#include "sim/front_end.hpp"
#include "sim/system_config.hpp"
#include "sim/trace_drive.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace rmcc::sim::detail
{

/** Derive the effective RMCC configuration for a run. */
inline core::RmccConfig
effectiveRmccConfig(const SystemConfig &cfg)
{
    core::RmccConfig rc = cfg.rmcc_cfg;
    rc.enabled = cfg.rmcc && cfg.secure;
    // Epochs scale with the simulated window (the paper's 1 M-access
    // epochs assume multi-billion-access lifetimes; see DESIGN.md).
    rc.budget.epoch_accesses = std::max<std::uint64_t>(
        50000, std::min<std::uint64_t>(rc.budget.epoch_accesses,
                                       cfg.trace_records / 8));
    return rc;
}

/**
 * All components of one simulated system.  The simulators take the
 * front end from the trace's FrontEndStream and leave `tlb` and `hier`
 * idle; perfbench's traced replica still drives them.
 */
struct SimRig
{
    addr::PageMapper mapper;
    cache::Tlb tlb;
    cache::Hierarchy hier;
    ctr::IntegrityTree tree;
    core::RmccEngine engine;
    dram::Ddr4 dram;
    mc::SecureMc mc;
    addr::CounterValue init_max; //!< Observed max right after init.

    explicit SimRig(const SystemConfig &cfg)
        : mapper(makePageMapper(cfg)),
          tlb(cfg.tlb_entries, cfg.tlb_assoc, mapper.pageSize()),
          hier(cfg.l1, cfg.l2, cfg.llc),
          tree(cfg.scheme, cfg.phys_bytes / addr::kBlockSize),
          engine(effectiveRmccConfig(cfg), tree),
          dram(cfg.dram),
          mc(mc::McConfig{cfg.secure, cfg.counter_cache_bytes,
                          cfg.counter_cache_assoc, cfg.lat,
                          mc::recoveryConfigFromEnv()},
             tree, engine, dram),
          init_max(0)
    {
        // The timing model charges latencies instead of running crypto,
        // so a garbage RMCC_CRYPTO_IMPL would otherwise never be
        // parsed.  Resolve the dispatch up front: runner knobs are
        // caller contract and must abort loudly (same policy as the
        // other strict RMCC_* vars).
        crypto::hwAesActive();
        util::Rng rng(cfg.seed ^ 0xc0c0);
        if (cfg.secure)
            tree.randomInit(rng, cfg.counter_init_mean);
        init_max = tree.observedMax();
    }
};

/** Records between two util::pollCancel calls of a replay loop. */
inline constexpr std::size_t kPollStride = 0x2000;

/**
 * How many records, from global record i on, a replay loop may step
 * over without its general per-record body: at most the `left` records
 * remaining in the window, and none at or past the next pollCancel
 * stride point or the warm-up record, both of which the general body
 * must reach.
 */
inline std::size_t
quietLimit(std::size_t i, std::size_t left,
           std::uint64_t warmup = ~std::uint64_t{0})
{
    std::size_t n = std::min(left, (kPollStride - i % kPollStride) %
                                       kPollStride);
    if (warmup >= i)
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, warmup - i));
    return n;
}

/**
 * Lifetime warm-up: replay the trace once through the counter tree and
 * RMCC engine alone (no caches/DRAM), with an unconstrained budget, so
 * the self-reinforcing update converges counter state the way the
 * unsimulated prior lifetime would have (the paper warms its integrity
 * tree for 25 B instructions in atomic mode before measuring).  Budgets
 * drain to zero afterwards: the measured window runs at steady accrual.
 *
 * Counter reads happen at LLC-miss granularity and counter writes at
 * true writeback addresses, taken from the same front-end stream the
 * measured run replays, so the measured caches start cold.  Only the
 * records that reach memory are visited; the rest are skipped in the
 * stream (FrontEndCursor::skipSilent).
 */
inline void
preconditionRmcc(SimRig &rig, const SystemConfig &cfg,
                 const trace::TraceSource &trace,
                 const FrontEndStream &stream)
{
    if (!(cfg.secure && cfg.rmcc && cfg.precondition))
        return;
    rig.engine.setBudgetPools(cfg.precondition_budget_fraction *
                              static_cast<double>(cfg.trace_records));
    const unsigned cov0 = rig.tree.level(0).coverage();
    std::uint64_t ops = 0;
    std::size_t i = 0;
    FrontEndCursor fe(stream);
    // This pass runs first, so with a spilled source its window-boundary
    // pre-warm (TraceDrive) establishes the mapper's first-touch frame
    // order; the measured loop's pre-warms then all no-op.
    TraceDrive drive(trace, rig.mapper, nullptr);
    while (drive.advance()) {
        const trace::TraceWindow &w = drive.window();
        for (std::size_t k = 0; k < w.count; ++k, ++i) {
            if (i % kPollStride == 0)
                util::pollCancel();
            const FrontEndEvent ev = fe.next();
            if (ev.hit_level == 4) {
                // Only LLC misses are translated: a page's first touch
                // is always one, so frames are assigned in the order a
                // live pass over every record assigns them.
                const addr::BlockId blk =
                    addr::blockOf(rig.mapper.translate(w.data[k].vaddr));
                rig.engine.onReadCounterUse(0, blk);
                if (ops % 8 == 0)
                    rig.engine.onReadCounterUse(1, blk / cov0);
                ++ops;
                rig.engine.onDramAccess();
            }
            if (ev.writebacks != 0) {
                const addr::BlockId blk = addr::blockOf(ev.writeback);
                rig.engine.onWriteCounter(0, blk);
                // L0 counter blocks reach memory roughly once per
                // several data writebacks; exercise the L1 table at
                // that rate.
                if (ops % 8 == 0)
                    rig.engine.onWriteCounter(1, blk / cov0);
                ++ops;
                rig.engine.onDramAccess();
            }
            const std::size_t skipped =
                fe.skipSilent(quietLimit(i + 1, w.count - k - 1));
            k += skipped;
            i += skipped;
        }
    }
    rig.engine.setBudgetPools(0.0);
}

} // namespace rmcc::sim::detail

#endif // RMCC_SIM_RIG_HPP
