/**
 * @file
 * The CPU front end's output for one trace: per record, the level of the
 * cache hierarchy that served it, whether its TLB lookup missed, and the
 * dirty LLC victims it sent to memory.
 *
 * RMCC acts only on the LLC miss/writeback stream, and everything above
 * the memory controller — TLB, page translation, L1/L2/LLC — depends on
 * the trace and a few CPU-side configuration fields, never on the
 * secure-memory configuration (scheme, RMCC, counter cache, AES
 * latency).  So one Tlb + PageMapper + Hierarchy pass over the trace
 * builds a FrontEndStream, the trace source memoizes it
 * (TraceSource::derived), and every cell with the same key replays it
 * instead of simulating the caches again.  See DESIGN.md §4.8.
 */
#ifndef RMCC_SIM_FRONT_END_HPP
#define RMCC_SIM_FRONT_END_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "address/page_mapper.hpp"
#include "sim/system_config.hpp"
#include "trace/record.hpp"
#include "trace/trace_source.hpp"

namespace rmcc::sim
{

/**
 * Front-end outcome of a whole trace.
 *
 * events holds one byte per record: bits 0-1 are the hit level minus
 * one (0 = L1 ... 3 = memory, i.e. an LLC miss), bit 2 is set when the
 * TLB lookup missed, and bits 3-4 count the dirty LLC victims the
 * access evicted (0-3).  victims lists those victims' addresses in
 * record order, and within a record in Hierarchy::access's order.
 */
struct FrontEndStream
{
    std::vector<std::uint8_t> events;
    std::vector<addr::Addr> victims;

    static std::uint8_t encode(unsigned hit_level, bool tlb_miss,
                               unsigned writebacks)
    {
        return static_cast<std::uint8_t>((hit_level - 1) |
                                         (tlb_miss ? 4u : 0u) |
                                         (writebacks << 3));
    }
    static unsigned hitLevel(std::uint8_t e) { return (e & 3u) + 1; }
    static bool llcMiss(std::uint8_t e) { return (e & 3u) == 3u; }
    static bool tlbMiss(std::uint8_t e) { return (e & 4u) != 0; }
    static unsigned writebacks(std::uint8_t e) { return e >> 3; }
    /** An L1 or L2 hit with no TLB miss and no writeback. */
    static bool quietHit(std::uint8_t e) { return e <= 1u; }
    /** Does the record send a read or a writeback to memory? */
    static bool reachesMemory(std::uint8_t e)
    {
        return llcMiss(e) || writebacks(e) != 0;
    }
};

/** One record's front-end outcome, as the replay loops consume it. */
struct FrontEndEvent
{
    unsigned hit_level = 0; //!< 1..3 = cache level, 4 = memory.
    bool tlb_miss = false;
    unsigned writebacks = 0; //!< Dirty LLC victims of this record.
    //! The last of those victims (valid when writebacks > 0).  The
    //! replay loops write back only this one, as they did when they
    //! took Hierarchy::access's memory_writeback.
    addr::Addr writeback = 0;
};

/** Reads a stream record by record, beside the trace. */
class FrontEndCursor
{
  public:
    explicit FrontEndCursor(const FrontEndStream &s)
        : ev_(s.events.data()), end_(ev_ + s.events.size()),
          vic_(s.victims.data())
    {
    }

    /** Decode the next record's event and step past it. */
    FrontEndEvent next()
    {
        const std::uint8_t e = *ev_++;
        FrontEndEvent out;
        out.hit_level = FrontEndStream::hitLevel(e);
        out.tlb_miss = FrontEndStream::tlbMiss(e);
        out.writebacks = FrontEndStream::writebacks(e);
        if (out.writebacks != 0) {
            out.writeback = vic_[out.writebacks - 1];
            vic_ += out.writebacks;
        }
        return out;
    }

    /** Does the record after the last next() miss the LLC?  Only valid
     *  when such a record exists. */
    bool peekLlcMiss() const { return FrontEndStream::llcMiss(*ev_); }

    /**
     * Step through a run of quiet records: L1/L2 hits (quietHit) whose
     * successor does not miss the LLC, so a replay loop has nothing to
     * do for them but advance its CPU model, and nothing to translate or
     * prefetch for the record after.  Covers at most the next n records
     * (rec[0] beside the next event), stops before the first that is not
     * quiet and calls on_quiet(rec[j]) for each one stepped through.
     * Returns how many that was.
     */
    template <class F>
    std::size_t quietRun(const trace::Record *rec, std::size_t n,
                         F &&on_quiet)
    {
        if (n == 0)
            return 0;
        // The trace's last record has no successor to look at.
        n = std::min(n, static_cast<std::size_t>(end_ - ev_) - 1);
        std::size_t j = 0;
        std::uint8_t e = ev_[0];
        while (j < n) {
            const std::uint8_t succ = ev_[j + 1];
            if (!FrontEndStream::quietHit(e) || FrontEndStream::llcMiss(succ))
                break;
            on_quiet(rec[j]);
            e = succ;
            ++j;
        }
        ev_ += j;
        return j;
    }

    /**
     * Step past the records among the next n that send nothing to memory
     * (see FrontEndStream::reachesMemory), stopping before the first
     * that does.  Returns how many were skipped.
     */
    std::size_t skipSilent(std::size_t n)
    {
        std::size_t j = 0;
        while (j < n && !FrontEndStream::reachesMemory(ev_[j]))
            ++j;
        ev_ += j;
        return j;
    }

  private:
    const std::uint8_t *ev_;
    const std::uint8_t *end_;
    const addr::Addr *vic_;
};

/** The run's page mapper (the front end and the rig build the same). */
inline addr::PageMapper
makePageMapper(const SystemConfig &cfg)
{
    return addr::PageMapper(cfg.page_mode, cfg.phys_bytes,
                            cfg.seed ^ 0x9a9a);
}

/**
 * The memo key: the record count plus every configuration field the
 * stream depends on (page mode, physical size, seed, TLB and L1/L2/LLC
 * geometry).  Latencies and the memory-side configuration are left out.
 */
std::string frontEndKey(const trace::TraceSource &trace,
                        const SystemConfig &cfg);

/**
 * Build the stream with one live Tlb + PageMapper + Hierarchy pass.
 * Polls util::pollCancel, so a cancelled cell aborts the build.
 */
std::shared_ptr<const FrontEndStream>
buildFrontEnd(const trace::TraceSource &trace, const SystemConfig &cfg);

/** The trace's stream for cfg: built on first use, then memoized. */
std::shared_ptr<const FrontEndStream>
frontEndStream(const trace::TraceSource &trace, const SystemConfig &cfg);

} // namespace rmcc::sim

#endif // RMCC_SIM_FRONT_END_HPP
