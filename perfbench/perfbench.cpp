/**
 * @file
 * perfbench — the repository benchmark's measuring program.
 *
 * One process replays one workload's generated trace serially through
 * the simulator's public entry points and prints one JSON object as its
 * last stdout line.  perfbench/run.py builds this program, pins the
 * environment, measures set-up in child processes, and assembles the
 * benchmark result; see perfbench/README.md for the metrics.
 *
 *   perfbench --mode setup --workload W --seed N
 *       time the shared-graph build/load (graph workloads) and the trace
 *       generation, as a fresh process pays them.
 *   perfbench --mode run --workload W --seed N --seconds S
 *       replay the workload's cells until S seconds have passed; report
 *       host replay rate, peak RSS, and the simulated Fig 13/14 figures.
 *   perfbench --mode trace --workload W --seed N --seconds S
 *       alternate each measured cell untraced and through the traced
 *       replica (traced.hpp); report the per-layer ledger.
 *
 * Every cell is one operation.  It fails when it throws, when its
 * simulated statistics differ from an earlier repeat or from the traced
 * replica, when a conservation identity breaks, or (fault workload) when
 * a fault goes undetected or the plan is not fully injected.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sched.h>

#include "cache/set_assoc.hpp"
#include "counters/morphable.hpp"
#include "crypto/dispatch.hpp"
#include "fault/campaign.hpp"
#include "obs/registry.hpp"
#include "sim/experiments.hpp"
#include "traced.hpp"
#include "workloads/registry.hpp"

extern char **environ;

using namespace rmcc;
using Clock = std::chrono::steady_clock;

namespace
{

/** One benchmark workload: a paper workload's trace plus its cells. */
struct WorkloadSpec
{
    const char *name;     //!< Benchmark workload name.
    const char *trace_wl; //!< Paper workload generating the trace.
    bool fault;           //!< Functional fault cells instead of Fig 13.
    bool graph;           //!< Trace generation walks the shared graph.
    std::size_t records;  //!< Default trace length.
};

// Why each workload is here: perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"canneal-fig13", "canneal", false, false, 1000000},
    {"pagerank-fig13", "pageRank", false, true, 1000000},
    {"omnetpp-fig13", "omnetpp", false, false, 1000000},
    {"canneal-fault", "canneal", true, false, 500000},
};

// Fault plan of the canneal-fault campaign cell.  The gap spreads the
// injections over the first half of the trace, so the whole plan lands
// at every trace length.
constexpr std::uint64_t kFaultInjections = 1000;

struct Options
{
    std::string mode = "run";
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    std::size_t records = 0; //!< 0 = the workload's default.
    std::string corrupt_stat; //!< Test seam: perturb this stat per cell.
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --mode setup|run|trace --workload W "
                 "[--seed N] [--seconds S] [--records N] "
                 "[--corrupt-stat NAME]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usageError("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--mode")
                o.mode = v;
            else if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--records")
                o.records = std::stoull(v);
            else if (a == "--corrupt-stat")
                o.corrupt_stat = v;
            else
                usageError("unknown option " + a);
        } catch (const std::logic_error &) {
            usageError("bad value for " + a + ": " + v);
        }
    }
    if (o.mode != "setup" && o.mode != "run" && o.mode != "trace")
        usageError("unknown mode " + o.mode);
    return o;
}

const WorkloadSpec &
findSpec(const std::string &name)
{
    for (const WorkloadSpec &s : kWorkloads)
        if (name == s.name)
            return s;
    usageError("unknown workload '" + name + "'");
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Spreads cells over the CPUs the process may run on.  The host's
 * vCPUs run at different, drifting speeds (their siblings carry other
 * tenants' load), so a run pinned wherever the scheduler first put it
 * measures that one CPU; rotating cell by cell samples all of them in
 * every run.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    /** Move the calling thread to the next CPU in turn. */
    void next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /** Pass a turn without moving. */
    void skip() { ++turn_; }

  private:
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Metrics in emission order, each with its unit. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += jsonString(entries_[i].name) + ": {\"value\": " +
                   jsonNumber(entries_[i].value) +
                   ", \"unit\": " + jsonString(entries_[i].unit) + "}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Attempted/failed operations and the reason for each failure. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void fail(const std::string &cell, const std::string &why)
    {
        ++failed;
        if (failures.size() < 32)
            failures.push_back(cell + ": " + why);
    }
};

// --- correctness checks ------------------------------------------------

/**
 * Conservation identities every cell's windowed stats must satisfy, as
 * SecureMc::read/write and the replay loops maintain them.  Returns the
 * first one broken, or nothing.
 */
std::optional<std::string>
brokenIdentity(const sim::SimResult &r, const sim::SystemConfig &cfg)
{
    const util::StatSet &s = r.stats;
    const auto sum = [&s](std::initializer_list<const char *> names) {
        double total = 0.0;
        for (const char *n : names)
            total += s.get(n);
        return total;
    };
    std::optional<std::string> bad;
    const auto require = [&bad](bool holds, const char *identity) {
        if (!holds && !bad)
            bad = identity;
    };
    // Every LLC miss is one controller read, every LLC writeback one
    // controller write.
    require(s.get("mc.reads") == s.get("sim.llc_misses"),
            "mc.reads = sim.llc_misses");
    require(s.get("mc.writes") == s.get("sim.llc_writebacks"),
            "mc.writes = sim.llc_writebacks");
    // chargeDram/chargeOverflow count each DRAM access in exactly one
    // category and in the total.
    require(s.get("dram.total") ==
                sum({"dram.data_read", "dram.data_write", "dram.ctr_read",
                     "dram.ctr_write", "dram.ovf0", "dram.ovf_hi"}),
            "dram.total = sum of its categories");
    if (!cfg.secure)
        return bad;
    // Each secure read either hits or misses its L0 counter block, and
    // consults the L0 memo table exactly once.
    require(sum({"ctr.l0_hit", "ctr.l0_miss"}) == s.get("mc.reads"),
            "ctr.l0_hit + ctr.l0_miss = mc.reads");
    require(s.get("memo.l0_lookups_all") == s.get("mc.reads"),
            "memo.l0_lookups_all = mc.reads");
    require(s.get("memo.l0_lookups_on_miss") == s.get("ctr.l0_miss"),
            "memo.l0_lookups_on_miss = ctr.l0_miss");
    require(sum({"memo.l0_group_hit_on_miss", "memo.l0_recent_hit_on_miss"}) ==
                s.get("memo.l0_hit_on_miss"),
            "group + recent hits = memo.l0_hit_on_miss");
    require(s.get("memo.l0_hit_all") <= s.get("memo.l0_lookups_all"),
            "memo.l0_hit_all <= memo.l0_lookups_all");
    require(s.get("memo.l0_hit_on_miss") <= s.get("memo.l0_lookups_on_miss"),
            "memo.l0_hit_on_miss <= memo.l0_lookups_on_miss");
    require(s.get("memo.accelerated_misses") <= s.get("memo.l0_hit_on_miss"),
            "memo.accelerated_misses <= memo.l0_hit_on_miss");
    // Counters never decrease, so the observed maximum cannot fall below
    // its value right after initialization.
    require(s.get("ctr.init_max") <= s.get("ctr.observed_max"),
            "ctr.init_max <= ctr.observed_max");
    return bad;
}

bool
sameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    return a.instructions == b.instructions &&
           a.elapsed_ns == b.elapsed_ns && a.stats.all() == b.stats.all();
}

bool
sameFaultStats(const fault::FaultStats &a, const fault::FaultStats &b)
{
    return a.counts == b.counts && a.injected == b.injected &&
           a.reads_verified == b.reads_verified &&
           a.unexpected_failures == b.unexpected_failures;
}

std::optional<std::string>
brokenFaultInvariant(const fault::FaultStats &fs, std::uint64_t planned)
{
    if (fs.silent() != 0)
        return std::to_string(fs.silent()) + " silent corruptions";
    if (fs.injected != planned)
        return "injected " + std::to_string(fs.injected) + " of " +
               std::to_string(planned) + " planned faults";
    if (fs.detected() + fs.masked() + fs.silent() != fs.injected)
        return "classified faults do not sum to injected";
    if (fs.unexpected_failures != 0)
        return std::to_string(fs.unexpected_failures) +
               " verification failures with no fault armed";
    return std::nullopt;
}

// --- cells -------------------------------------------------------------

/** One measured (configuration, campaign) cell of a workload. */
struct Cell
{
    std::string label;
    sim::SystemConfig cfg;
    bool campaign = false; //!< Run with a seeded FaultCampaign.
};

struct CellRun
{
    sim::SimResult res;
    fault::FaultStats faults;
    double seconds = 0.0;
};

fault::FaultPlan
faultPlan(std::size_t records, std::uint64_t seed)
{
    fault::FaultPlan plan;
    plan.injections = kFaultInjections;
    plan.gap_records =
        std::max<std::uint64_t>(1, records / (2 * kFaultInjections));
    plan.seed = seed ^ 0x5eedULL;
    return plan;
}

sim::SystemConfig
shaped(sim::NamedConfig nc, std::size_t records, std::uint64_t seed)
{
    // Same shape as `rmcc_sim --records N --seed S`: warm-up is half.
    nc.cfg.trace_records = records;
    nc.cfg.warmup_records = records / 2;
    nc.cfg.seed = seed;
    return nc.cfg;
}

std::vector<Cell>
timingCells(std::size_t records, std::uint64_t seed)
{
    using sim::SimMode;
    return {
        {"non-secure", shaped(sim::nonSecureConfig(SimMode::Timing),
                              records, seed)},
        {"SC-64", shaped(sim::baselineConfig(SimMode::Timing,
                                             ctr::SchemeKind::SC64),
                         records, seed)},
        {"Morphable", shaped(sim::baselineConfig(
                                 SimMode::Timing,
                                 ctr::SchemeKind::Morphable),
                             records, seed)},
        {"Morphable+RMCC",
         shaped(sim::rmccConfig(SimMode::Timing), records, seed)},
    };
}

std::vector<Cell>
faultCells(std::size_t records, std::uint64_t seed)
{
    const sim::SystemConfig cfg = shaped(
        sim::rmccConfig(sim::SimMode::Functional), records, seed);
    return {{"functional Morphable+RMCC", cfg, false},
            {"functional Morphable+RMCC+faults", cfg, true}};
}

/**
 * Run one cell through the public simulator entry points, or, given a
 * ledger, through the traced replica of the same loop.
 */
CellRun
runCell(const std::string &wl, const trace::TraceSource &src,
        const Cell &c, std::uint64_t seed,
        perfbench::Ledger *led = nullptr)
{
    CellRun run;
    const Clock::time_point t0 = Clock::now();
    if (c.campaign) {
        fault::FaultCampaign campaign(
            faultPlan(c.cfg.trace_records, seed), fault::OracleConfig());
        run.res = led ? perfbench::tracedFunctional(wl, src, c.cfg,
                                                    &campaign, *led)
                      : sim::runFunctional(wl, src, c.cfg, &campaign);
        run.faults = campaign.stats();
    } else if (c.cfg.mode == sim::SimMode::Timing) {
        run.res = led ? perfbench::tracedTiming(wl, src, c.cfg, *led)
                      : sim::runTiming(wl, src, c.cfg);
    } else {
        run.res = led ? perfbench::tracedFunctional(wl, src, c.cfg, nullptr,
                                                    *led)
                      : sim::runFunctional(wl, src, c.cfg);
    }
    run.seconds = secondsSince(t0);
    return run;
}

/**
 * Validates every run of one cell: identities, fault invariants, and
 * bit-identity with the first run of the cell.
 */
class CellChecker
{
  public:
    /**
     * @param corrupt_stat test seam (--corrupt-stat): perturb this stat
     *        in every checked run -- in trace mode only in the traced
     *        runs, so the traced-vs-untraced comparison must catch it.
     */
    CellChecker(Outcome &out, std::string corrupt_stat, bool trace_mode)
        : out_(out), corrupt_stat_(std::move(corrupt_stat)),
          trace_mode_(trace_mode)
    {
    }

    /** Count one attempted operation and check it. */
    void check(const Cell &c, CellRun &run, bool traced = false)
    {
        ++out_.attempted;
        if (!corrupt_stat_.empty() && traced == trace_mode_)
            run.res.stats.set(corrupt_stat_,
                              run.res.stats.get(corrupt_stat_) + 1.0);
        const std::string name = c.label + (traced ? " (traced)" : "");
        if (const auto bad = brokenIdentity(run.res, c.cfg)) {
            out_.fail(name, "identity broken: " + *bad);
            return;
        }
        if (c.campaign) {
            if (const auto bad = brokenFaultInvariant(run.faults,
                                                      kFaultInjections)) {
                out_.fail(name, *bad);
                return;
            }
        }
        auto it = first_.find(c.label);
        if (it == first_.end()) {
            first_.emplace(c.label, run);
            return;
        }
        if (!sameResult(run.res, it->second.res) ||
            !sameFaultStats(run.faults, it->second.faults))
            out_.fail(name, "simulated stats differ from the cell's "
                            "first run");
    }

    /** First checked run of a cell (its reference). */
    const CellRun *first(const std::string &label) const
    {
        const auto it = first_.find(label);
        return it == first_.end() ? nullptr : &it->second;
    }

  private:
    Outcome &out_;
    std::string corrupt_stat_;
    bool trace_mode_;
    std::map<std::string, CellRun> first_;
};

/** Run body(), counting a throw as a failed operation of `cell`. */
void
guarded(Outcome &out, const std::string &cell,
        const std::function<void()> &body)
{
    try {
        body();
    } catch (const std::exception &e) {
        ++out.attempted;
        out.fail(cell, std::string("threw: ") + e.what());
    }
}

// --- provenance --------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    return "unknown";
}

std::string
provenanceJson()
{
    const crypto::CpuFeatures f = crypto::detectCpuFeatures();
    const auto b = [](bool v) { return std::string(v ? "true" : "false"); };
    std::string env = "{";
    std::vector<std::string> vars;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "RMCC_", 5) == 0)
            vars.emplace_back(*e);
    std::sort(vars.begin(), vars.end());
    for (std::size_t i = 0; i < vars.size(); ++i) {
        const auto eq = vars[i].find('=');
        env += (i ? ", " : "") + jsonString(vars[i].substr(0, eq)) + ": " +
               jsonString(vars[i].substr(eq + 1));
    }
    env += "}";
    return "{\"cpu_model\": " + jsonString(cpuModel()) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"aesni\": " + b(f.aesni) + ", \"pclmul\": " + b(f.pclmul) +
           ", \"avx2\": " + b(f.avx2) +
           ", \"crypto_hw_aes\": " + b(crypto::hwAesActive()) +
           ", \"crypto_hw_clmul\": " + b(crypto::hwClmulActive()) +
           ", \"crypto_batch_aes\": " + b(crypto::batchAesActive()) +
           ", \"crypto_batch_clmul\": " + b(crypto::batchClmulActive()) +
           ", \"simd_cache_probes\": " +
           b(cache::SetAssocCache::simdProbesActive()) +
           ", \"simd_morphable_scan\": " +
           b(ctr::MorphableScheme::simdScanActive()) +
           ", \"rmcc_env\": " + env + "}";
}

double
peakRssMiB()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printResult(const Outcome &out, const Metrics &m)
{
    std::string failures = "[";
    for (std::size_t i = 0; i < out.failures.size(); ++i)
        failures += (i ? ", " : "") + jsonString(out.failures[i]);
    failures += "]";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s, \"failures\": %s, \"provenance\": %s}\n",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                m.json().c_str(), failures.c_str(),
                provenanceJson().c_str());
}

// --- modes -------------------------------------------------------------

int
modeSetup(const WorkloadSpec &spec, const Options &o, std::size_t records)
{
    const wl::Workload *w = wl::findWorkload(spec.trace_wl);
    const Clock::time_point t0 = Clock::now();
    if (spec.graph)
        wl::sharedGraph();
    const double graph_s = secondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    const wl::TraceHandle trace =
        wl::generateTraceHandle(*w, records, o.seed);
    const double trace_s = secondsSince(t1);
    if (trace.spilled() || trace.source().size() == 0)
        throw std::runtime_error("trace must be in RAM and non-empty");
    std::printf("{\"graph\": %s, \"graph_s\": %s, \"trace_gen_s\": %s, "
                "\"records\": %zu}\n",
                spec.graph ? "true" : "false", jsonNumber(graph_s).c_str(),
                jsonNumber(trace_s).c_str(), trace.source().size());
    return 0;
}

/** Keep repeating until the time budget is spent (at least min_reps). */
bool
moreReps(Clock::time_point t0, double seconds, std::size_t reps,
         std::size_t min_reps)
{
    return reps < min_reps || secondsSince(t0) < seconds;
}

int
modeRun(const WorkloadSpec &spec, const Options &o,
        const wl::TraceHandle &trace, std::size_t records)
{
    const trace::TraceSource &src = trace.source();
    const std::vector<Cell> cells = spec.fault
                                        ? faultCells(records, o.seed)
                                        : timingCells(records, o.seed);
    Outcome out;
    CellChecker checker(out, o.corrupt_stat, false);
    std::vector<double> rates;
    CpuRotation cpus;
    const Clock::time_point t0 = Clock::now();
    while (moreReps(t0, o.seconds, rates.size(), 3)) {
        double rep_s = 0.0;
        for (const Cell &c : cells)
            guarded(out, c.label, [&] {
                cpus.next();
                CellRun run = runCell(spec.trace_wl, src, c, o.seed);
                rep_s += run.seconds;
                checker.check(c, run);
            });
        rates.push_back(static_cast<double>(src.size() * cells.size()) /
                        rep_s / 1e6);
        // Shift the cell-to-CPU pairing from one repeat to the next.
        cpus.skip();
    }

    // The simulated figures come from the Fig 13 Morphable and
    // Morphable+RMCC cells.  canneal-fault times functional cells, so it
    // replays its trace once more through those two, outside the timed
    // window.
    if (spec.fault) {
        const std::vector<Cell> fig13 = timingCells(records, o.seed);
        for (const Cell &c : {fig13[2], fig13[3]})
            guarded(out, c.label, [&] {
                CellRun run = runCell(spec.trace_wl, src, c, o.seed);
                checker.check(c, run);
            });
    }
    const CellRun *morph_run = checker.first("Morphable");
    const CellRun *rmcc_run = checker.first("Morphable+RMCC");
    const sim::SimResult *morph = morph_run ? &morph_run->res : nullptr;
    const sim::SimResult *rmcc = rmcc_run ? &rmcc_run->res : nullptr;
    if (!morph || !rmcc)
        out.fail("Morphable+RMCC", "no simulated result to report");

    Metrics m;
    m.add("replay_mrec_s", median(rates), "Mrec/s");
    m.add("peak_rss_mib", peakRssMiB(), "MiB");
    m.add("sim_speedup",
          morph && rmcc && morph->perf() > 0 ? rmcc->perf() / morph->perf()
                                             : 0.0,
          "ratio");
    m.add("sim_read_ns", rmcc ? rmcc->avgReadLatencyNs() : 0.0, "ns");
    m.add("sim_memo_hit_pct", rmcc ? rmcc->memoHitRateAll() * 100.0 : 0.0,
          "%");
    std::string reps;
    for (const double r : rates) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.3f", r);
        reps += buf;
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: Mrec/s per repeat:%s\n",
                 spec.name, static_cast<unsigned long long>(o.seed),
                 reps.c_str());
    printResult(out, m);
    return 0;
}

/** Per-repeat figures of the traced run that do not add up. */
using Sample = std::map<std::string, double>;

Sample
repeatSample(const perfbench::Ledger &led, double untraced_s)
{
    Sample x;
    x["sim.cell_s"] = led.cell_s;
    x["sim.rig_s"] = led.rig_s;
    x["core.precondition_s"] = led.precondition_s;
    const double mc_ops =
        static_cast<double>(led.mc_read.calls + led.mc_write.calls);
    x["sim.host_ns_per_mc_op"] = mc_ops > 0 ? untraced_s * 1e9 / mc_ops : 0;
    x["sim.trace_overhead_pct"] =
        untraced_s > 0 ? (led.cell_s - untraced_s) / untraced_s * 100.0
                       : 0.0;
    return x;
}

int
modeTrace(const WorkloadSpec &spec, const Options &o,
          const wl::TraceHandle &trace, std::size_t records)
{
    const trace::TraceSource &src = trace.source();
    // The traced cell: Morphable+RMCC (timing), or the campaign cell of
    // the fault workload, whose plain twin gives fault.verify_s.
    std::vector<Cell> cells = spec.fault ? faultCells(records, o.seed)
                                         : timingCells(records, o.seed);
    const Cell traced_cell = cells.back();
    const std::optional<Cell> plain_cell =
        spec.fault ? std::optional<Cell>(cells.front()) : std::nullopt;

    Outcome out;
    CellChecker checker(out, o.corrupt_stat, true);
    std::vector<Sample> samples;
    perfbench::Ledger total; // spans summed over every traced repeat
    std::vector<double> verify_s;
    std::uint64_t aes_ops = 0, clmul_ops = 0; // in the last traced run
    CpuRotation cpus;
    const Clock::time_point t0 = Clock::now();
    while (moreReps(t0, o.seconds, samples.size(), 3)) {
        // One CPU per repeat: the overhead compares runs on one CPU.
        cpus.next();
        double plain_s = 0.0;
        if (plain_cell)
            guarded(out, plain_cell->label, [&] {
                CellRun run = runCell(spec.trace_wl, src, *plain_cell,
                                      o.seed);
                plain_s = run.seconds;
                checker.check(*plain_cell, run);
            });
        guarded(out, traced_cell.label, [&] {
            CellRun run = runCell(spec.trace_wl, src, traced_cell, o.seed);
            checker.check(traced_cell, run);
            const double untraced_s = run.seconds;
            if (plain_cell)
                verify_s.push_back(untraced_s - plain_s);

            perfbench::Ledger led;
            crypto::setCryptoOpCounting(true);
            const crypto::CryptoOpCounts c0 = crypto::cryptoOpCounts();
            CellRun traced =
                runCell(spec.trace_wl, src, traced_cell, o.seed, &led);
            const crypto::CryptoOpCounts c1 = crypto::cryptoOpCounts();
            crypto::setCryptoOpCounting(false);
            aes_ops = c1.aes_hw + c1.aes_sw - c0.aes_hw - c0.aes_sw;
            clmul_ops = c1.clmul_hw + c1.clmul_sw - c0.clmul_hw - c0.clmul_sw;
            // The traced replica must be the measured program: its
            // stats are checked against the cell's first untraced run.
            checker.check(traced_cell, traced, true);
            samples.push_back(repeatSample(led, untraced_s));
            total.add(led);
        });
    }

    const CellRun *ref = checker.first(traced_cell.label);
    const sim::SimResult empty;
    const sim::SimResult &r = ref ? ref->res : empty;
    const fault::FaultStats fs = ref ? ref->faults : fault::FaultStats();
    const util::StatSet &s = r.stats;
    const double window = static_cast<double>(
        records - traced_cell.cfg.warmup_records);
    const auto pct = [](double a, double b) {
        return b > 0 ? a / b * 100.0 : 0.0;
    };
    const auto med = [&](const char *key) {
        std::vector<double> v;
        for (const Sample &x : samples)
            v.push_back(x.at(key));
        return median(v);
    };

    const auto per_rec = [&](const perfbench::Span &span) {
        return total.nsPerRecord(span);
    };

    Metrics m;
    m.add("address.translate_ns", per_rec(total.translate), "ns/rec");
    m.add("cache.tlb_ns", per_rec(total.tlb), "ns/rec");
    m.add("cache.tlb_miss_pct", pct(s.get("tlb.misses"), window), "%");
    m.add("cache.prefetch_ns", per_rec(total.hier_prefetch), "ns/rec");
    m.add("cache.hier_ns", per_rec(total.hier_access), "ns/rec");
    m.add("cache.llc_miss_per_krec", s.get("sim.llc_misses") / window * 1e3,
          "1/krec");
    m.add("cache.llc_wb_per_krec",
          s.get("sim.llc_writebacks") / window * 1e3, "1/krec");
    m.add("sim.cpu_ns", per_rec(total.cpu), "ns/rec");
    m.add("sim.loop_other_ns", total.otherNsPerRecord(), "ns/rec");
    m.add("sim.loop_ns", total.loopNsPerRecord(), "ns/rec");
    m.add("sim.cell_s", med("sim.cell_s"), "s");
    m.add("sim.rig_s", med("sim.rig_s"), "s");
    m.add("sim.host_ns_per_mc_op", med("sim.host_ns_per_mc_op"), "ns");
    m.add("sim.trace_overhead_pct", med("sim.trace_overhead_pct"), "%");
    m.add("mc.prefetch_read_ns", per_rec(total.mc_prefetch), "ns/rec");
    m.add("mc.read_ns", per_rec(total.mc_read), "ns/rec");
    m.add("mc.write_ns", per_rec(total.mc_write), "ns/rec");
    m.add("mc.reads", s.get("mc.reads"), "count");
    m.add("mc.writes", s.get("mc.writes"), "count");
    m.add("mc.ctr_miss_pct", r.counterMissRate() * 100.0, "%");
    m.add("core.precondition_s", med("core.precondition_s"), "s");
    m.add("core.engine_call_ns", total.engineNsPerCall(), "ns");
    m.add("core.memo_hit_on_miss_pct", r.memoHitRateOnMiss() * 100.0, "%");
    m.add("core.accel_pct", r.acceleratedMissRate() * 100.0, "%");
    m.add("core.read_updates", s.get("rmcc.read_updates"), "count");
    m.add("core.write_updates", s.get("rmcc.memo_write_updates"), "count");
    m.add("counters.overflows", s.get("ctr.overflows_total"), "count");
    m.add("counters.observed_max", s.get("ctr.observed_max"), "count");
    m.add("dram.total", s.get("dram.total"), "count");
    m.add("dram.row_hit_pct",
          pct(s.get("dram.row_hits"),
              s.get("dram.row_hits") + s.get("dram.row_conflicts")),
          "%");
    m.add("fault.verify_s", median(verify_s), "s");
    m.add("fault.after_record_ns", per_rec(total.after_record), "ns/rec");
    m.add("fault.injected", static_cast<double>(fs.injected), "count");
    m.add("fault.detected", static_cast<double>(fs.detected()), "count");
    m.add("fault.silent", static_cast<double>(fs.silent()), "count");
    m.add("crypto.aes_ops", static_cast<double>(aes_ops), "count");
    m.add("crypto.clmul_ops", static_cast<double>(clmul_ops), "count");
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu traced repeats\n",
                 spec.name, static_cast<unsigned long long>(o.seed),
                 samples.size());
    printResult(out, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec &spec = findSpec(o.workload);
    const std::size_t records = o.records ? o.records : spec.records;
    try {
        // The ledger replicas assume observability off: refuse to run
        // with a registry that would make the two programs differ.
        if (obs::makeRunRegistry("perfbench") != nullptr)
            throw std::runtime_error("RMCC_OBS must be off");
        if (o.mode == "setup")
            return modeSetup(spec, o, records);

        const wl::Workload *w = wl::findWorkload(spec.trace_wl);
        if (spec.graph)
            wl::sharedGraph();
        const wl::TraceHandle trace =
            wl::generateTraceHandle(*w, records, o.seed);
        if (trace.spilled())
            throw std::runtime_error("trace must replay from RAM");
        return o.mode == "run" ? modeRun(spec, o, trace, records)
                               : modeTrace(spec, o, trace, records);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
