#include "sim/front_end.hpp"

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "sim/trace_drive.hpp"
#include "util/cancel.hpp"

namespace rmcc::sim
{

std::string
frontEndKey(const trace::TraceSource &trace, const SystemConfig &cfg)
{
    const auto level = [](const cache::LevelConfig &l) {
        return std::to_string(l.size_bytes) + "/" + std::to_string(l.assoc);
    };
    return "front_end|records=" + std::to_string(trace.size()) +
           "|pages=" +
           (cfg.page_mode == addr::PageMode::Huge2M ? "2M" : "4K") +
           "|phys=" + std::to_string(cfg.phys_bytes) +
           "|seed=" + std::to_string(cfg.seed) +
           "|tlb=" + std::to_string(cfg.tlb_entries) + "/" +
           std::to_string(cfg.tlb_assoc) + "|l1=" + level(cfg.l1) +
           "|l2=" + level(cfg.l2) + "|llc=" + level(cfg.llc);
}

std::shared_ptr<const FrontEndStream>
buildFrontEnd(const trace::TraceSource &trace, const SystemConfig &cfg)
{
    addr::PageMapper mapper = makePageMapper(cfg);
    cache::Tlb tlb(cfg.tlb_entries, cfg.tlb_assoc, mapper.pageSize());
    cache::Hierarchy hier(cfg.l1, cfg.l2, cfg.llc);
    auto s = std::make_shared<FrontEndStream>();
    s->events.reserve(trace.size());
    std::uint64_t polled = 0;
    // With a spilled source the drive pre-warms this mapper per window,
    // which assigns the same frames as translating record by record.
    // One-record lookahead: the next record is translated (in trace
    // order, so frames are unchanged) and its cache sets prefetched
    // while this record's access runs; Hierarchy::prefetch is pure.
    detail::TraceDrive drive(trace, mapper, nullptr);
    bool more = drive.advance();
    addr::Addr next_paddr =
        more ? mapper.translate(drive.window().data[0].vaddr) : 0;
    while (more) {
        const trace::TraceWindow &w = drive.window();
        for (std::size_t k = 0; k < w.count; ++k) {
            if ((polled++ & 0x1fff) == 0)
                util::pollCancel();
            const trace::Record &rec = w.data[k];
            const addr::Addr paddr = next_paddr;
            const trace::Record *nxt =
                k + 1 < w.count ? &w.data[k + 1] : w.ahead;
            if (nxt != nullptr) {
                next_paddr = mapper.translate(nxt->vaddr);
                hier.prefetch(next_paddr);
            }
            const bool tlb_miss = !tlb.access(rec.vaddr);
            const cache::HierarchyResult h = hier.access(paddr, rec.is_write);
            s->events.push_back(FrontEndStream::encode(
                h.hit_level, tlb_miss, h.writeback_count));
            s->victims.insert(s->victims.end(), h.writebacks.begin(),
                              h.writebacks.begin() + h.writeback_count);
        }
        more = drive.advance();
    }
    s->victims.shrink_to_fit();
    return s;
}

std::shared_ptr<const FrontEndStream>
frontEndStream(const trace::TraceSource &trace, const SystemConfig &cfg)
{
    return trace.derived<FrontEndStream>(
        frontEndKey(trace, cfg), [&] { return buildFrontEnd(trace, cfg); });
}

} // namespace rmcc::sim
