#include "sim/system_config.hpp"

#include <sstream>

namespace rmcc::sim
{

SystemConfig
SystemConfig::timingDefault()
{
    SystemConfig cfg;
    cfg.mode = SimMode::Timing;
    return cfg;
}

SystemConfig
SystemConfig::functionalDefault()
{
    SystemConfig cfg;
    cfg.mode = SimMode::Functional;
    cfg.l2 = {1024 * 1024, 8, 4.0};
    cfg.llc = {2ULL * 1024 * 1024, 16, 17.0};
    cfg.counter_cache_bytes = 32 * 1024;
    cfg.trace_records = 1500 * 1000;
    cfg.warmup_records = 750 * 1000;
    return cfg;
}

std::string
SystemConfig::describe() const
{
    std::ostringstream out;
    out << "CPU: x86-like, 1 core, " << cpu.freq_ghz << " GHz, "
        << cpu.width << "-wide OoO, " << cpu.rob << " entry ROB\n";
    out << "D-TLB/I-TLB: " << tlb_entries << " entries\n";
    out << "L1 DCache: " << l1.size_bytes / 1024 << " KB " << l1.assoc
        << "-way, " << l1.latency_ns << " ns\n";
    out << "L2 Cache: " << l2.size_bytes / 1024 << " KB " << l2.assoc
        << "-way, " << l2.latency_ns << " ns\n";
    out << "L3 Cache: " << llc.size_bytes / (1024 * 1024) << " MB "
        << llc.assoc << "-way, " << llc.latency_ns << " ns\n";
    out << "Counter Cache in MC: " << counter_cache_bytes / 1024 << " KB "
        << counter_cache_assoc << "-way\n";
    out << "Counter scheme: " << ctr::schemeKindName(scheme)
        << (rmcc ? " + RMCC" : "") << "\n";
    out << "Decoding of Morphable Counters: 3 ns\n";
    out << "AES latency: " << lat.aes_ns << " ns\n";
    out << "Carry-less Multiplication Latency: " << lat.clmul_ns
        << " ns\n";
    out << "Memoization Table in MC: " << rmcc_cfg.memo.entries()
        << " entries for L0 counters, " << rmcc_cfg.memo.entries()
        << " entries for L1 counters\n";
    out << "Memory Data Rate: " << dram.data_rate_gtps << " GT/s\n";
    out << "tCL, tRCD, tRP: " << dram.tCL_ns << " ns\n";
    out << "tRFC: " << dram.tRFC_ns << " ns\n";
    out << "Row buffer policy: " << dram.row_timeout_ns << " ns timeout\n";
    out << "Read/Write queue: " << dram.queue_entries << " entries\n";
    out << "Channels, Ranks: " << dram.channels << ", " << dram.ranks
        << "\n";
    out << "Mapping Function: XOR-based (Skylake-like)\n";
    out << "Bank-level scheduling policy: FR-FCFS-Capped (cap "
        << dram.frfcfs_cap << ")\n";
    return out.str();
}

} // namespace rmcc::sim
