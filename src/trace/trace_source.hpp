/**
 * @file
 * The two sides of the out-of-core trace engine:
 *
 *  - TraceSink: what workload generators write into.  Implemented by the
 *    in-RAM TraceBuffer and by the spilling TraceFileWriter, so a
 *    generator streams records without knowing whether they land in a
 *    vector or on disk.
 *  - TraceSource: what the simulators replay from, as a sequence of
 *    contiguous record windows.  Implemented by TraceBuffer (one window
 *    covering the whole vector — the pre-PR-8 fast path, bit-identical)
 *    and by the windowed mmap TraceFileReader (epoch-sized windows with
 *    the next one prefetched while the current drains).
 *
 * Virtual dispatch happens once per *window*, never per record: the
 * replay loops iterate raw `const Record *` spans inside a window, so the
 * in-RAM path compiles to the same inner loop as before the abstraction.
 *
 * A source also memoizes data derived from its records
 * (TraceSource::derived), such as the simulated front end's event stream
 * (sim/front_end.hpp), so each trace builds it once for all its cells.
 */
#ifndef RMCC_TRACE_TRACE_SOURCE_HPP
#define RMCC_TRACE_TRACE_SOURCE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "trace/record.hpp"
#include "util/mutex.hpp"

namespace rmcc::trace
{

struct TracePlan;

/** Destination of a workload generator's record stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Append a load/store.  Out-of-range values (vaddr above 47 bits,
     * gap above 16) are fatal: the packed Record cannot represent them
     * and truncation would silently corrupt the trace.  Appends past the
     * sink's capacity are counted as dropped, not stored.
     */
    virtual void append(addr::Addr vaddr, bool is_write,
                        std::uint32_t inst_gap) = 0;

    /** True once the capacity is reached; generators should stop. */
    virtual bool full() const = 0;
};

/**
 * Replay-side I/O counters a spilling source maintains (all zero /
 * absent for the in-RAM path).  Exposed through TraceCursor::ioStats()
 * so the observability layer can chart window traffic per run.
 */
struct TraceIoStats
{
    std::uint64_t windows_served = 0;   //!< next() calls returning data.
    std::uint64_t prefetches = 0;       //!< madvise(WILLNEED) issued.
    std::uint64_t windows_dropped = 0;  //!< madvise(DONTNEED) issued.
    std::uint64_t wait_ns = 0;          //!< Host time blocked in next().
};

/**
 * One contiguous span of records handed to a replay loop.
 *
 * `ahead` points at the record that follows the window (the first record
 * of the next window) so the simulators' one-record lookahead works
 * across window boundaries; nullptr at end of trace.  The span and
 * `ahead` stay valid until the next TraceCursor::next() call.
 */
struct TraceWindow
{
    const Record *data = nullptr;
    std::size_t count = 0;
    std::uint64_t first = 0; //!< Global index of data[0].
    const Record *ahead = nullptr;
};

/**
 * Forward iteration over a source's windows.  Cursors are independent:
 * a source can serve several (the precondition pass and the measured
 * pass each take their own).
 */
class TraceCursor
{
  public:
    virtual ~TraceCursor() = default;

    /** Advance to the next window; count == 0 at end of trace. */
    virtual TraceWindow next() = 0;

    /** I/O counters for this cursor; nullptr for in-RAM sources. */
    virtual const TraceIoStats *ioStats() const { return nullptr; }
};

/**
 * A finished trace the simulators can replay.  The summary statistics
 * are totals over the whole stream (used by trace-shape validation and
 * reporting) and must be O(1) — sources compute them during generation
 * or during the planning pass, never by re-reading records.
 */
class TraceSource
{
  public:
    TraceSource() = default;
    virtual ~TraceSource() = default;

    //! A copy holds the same records but starts with an empty memo of
    //! derived data; assigning over a source drops its memo.
    TraceSource(const TraceSource & /*other*/) {}
    TraceSource &operator=(const TraceSource & /*other*/)
    {
        forgetDerived();
        return *this;
    }

    /** Recorded operations. */
    virtual std::size_t size() const = 0;

    /** Total instructions represented (memory ops + gaps). */
    virtual std::uint64_t totalInstructions() const = 0;

    /** Number of writes recorded. */
    virtual std::uint64_t writes() const = 0;

    /** Appends refused because the sink was already full. */
    virtual std::uint64_t dropped() const = 0;

    /** Distinct 64 B blocks touched (exact). */
    virtual std::uint64_t distinctBlocks() const = 0;

    /** Begin a fresh pass over the records. */
    virtual std::unique_ptr<TraceCursor> cursor() const = 0;

    /**
     * Per-window working sets from the planning pass, when the source
     * ran one (the spilling reader does at open; in-RAM sources return
     * nullptr).  Replay uses it to pre-warm the page mapper at window
     * boundaries — see trace_plan.hpp for why that is bit-identical.
     */
    virtual const TracePlan *plan() const { return nullptr; }

    /**
     * Data derived from the records, built at most once per key and kept
     * until the source is destroyed or assigned over.  The first caller
     * of a key runs build() under that key's lock, so concurrent callers
     * wait for it and then share its result; a build that throws
     * publishes nothing and the next caller builds again.  The key must
     * name everything besides the records that the result depends on,
     * and T must be the same type for every caller of one key.
     */
    template <class T, class Build>
    std::shared_ptr<const T> derived(const std::string &key,
                                     Build &&build) const
    {
        const std::shared_ptr<DerivedSlot> held = derivedSlot(key);
        DerivedSlot &slot = *held;
        util::MutexLock lock(slot.mu);
        if (slot.value == nullptr)
            slot.value = std::shared_ptr<const T>(build());
        return std::static_pointer_cast<const T>(slot.value);
    }

  protected:
    /** Drop every derived result (the records were replaced). */
    void forgetDerived()
    {
        util::MutexLock lock(derived_mu_);
        derived_.clear();
    }

  private:
    struct DerivedSlot
    {
        util::Mutex mu;
        std::shared_ptr<const void> value RMCC_GUARDED_BY(mu);
    };

    std::shared_ptr<DerivedSlot> derivedSlot(const std::string &key) const
    {
        util::MutexLock lock(derived_mu_);
        std::shared_ptr<DerivedSlot> &slot = derived_[key];
        if (slot == nullptr)
            slot = std::make_shared<DerivedSlot>();
        return slot;
    }

    mutable util::Mutex derived_mu_;
    mutable std::map<std::string, std::shared_ptr<DerivedSlot>>
        derived_ RMCC_GUARDED_BY(derived_mu_);
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_SOURCE_HPP
