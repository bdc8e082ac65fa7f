/**
 * @file
 * perfbench: host-speed benchmark of the simulator and its trust stack.
 *
 * One process, one thread. Each selected workload runs one unmeasured
 * warm-up iteration, then iterations round-robin across the selected
 * workloads until --seconds have passed. Every iteration checks its
 * outputs (see README.md, "Correctness checks"); a failed check counts
 * one failed operation against the attempted count.
 *
 * With --trace 0 the result carries the end-to-end metrics. With
 * --trace 1 every other round is traced: spans (name, start, end,
 * parent) are recorded around each call into a layer, kept in memory
 * and written out at exit, and the result carries the per-layer
 * metrics. The benchmark only calls public entry points, so every
 * span sits in this file, around a call into the program.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "contract/contract.hh"
#include "cpu/machine.hh"
#include "fuzz/fuzz.hh"
#include "kernel/kernel_builder.hh"
#include "modelcheck/modelcheck.hh"
#include "modelcheck/replay.hh"
#include "verify/dataflow.hh"
#include "verify/minimize.hh"
#include "verify/superset.hh"
#include "verify/verify.hh"
#include "workloads/apps.hh"
#include "workloads/lmbench.hh"

namespace {

using namespace isagrid;

// ---------------------------------------------------------------------
// Clocks and spans
// ---------------------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Thread CPU time: excludes time the thread spent descheduled. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

struct Span
{
    const char *name;
    double start;
    double end;
    int parent; //!< index into the span list, -1 for a root
};

/** In-memory span recorder; a closed no-op while disabled. */
class Tracer
{
  public:
    bool enabled = false;
    std::vector<Span> spans;

    int
    open(const char *name)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, wallNow(), 0.0, current_});
        current_ = int(spans.size()) - 1;
        return current_;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[std::size_t(id)].end = wallNow();
        current_ = spans[std::size_t(id)].parent;
    }

  private:
    int current_ = -1;
};

Tracer tracer;

/** Records one span for its lifetime. */
class Scope
{
  public:
    explicit Scope(const char *name) : id_(tracer.open(name)) {}
    ~Scope() { tracer.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/** Self time per span name, and the share of each root its children
 *  cover, over spans [first, end). */
struct LayerSplit
{
    std::map<std::string, double> self_s;
    double min_iteration_coverage = 1.0;
};

LayerSplit
splitLayers(std::size_t first)
{
    const std::vector<Span> &spans = tracer.spans;
    std::vector<double> child(spans.size() - first, 0.0);
    for (std::size_t i = first; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.parent >= int(first))
            child[std::size_t(s.parent) - first] += s.end - s.start;
    }
    LayerSplit split;
    for (std::size_t i = first; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double dur = s.end - s.start;
        split.self_s[s.name] += dur - child[i - first];
        if (s.parent < 0 && std::strcmp(s.name, "iteration") == 0 &&
            dur > 0) {
            split.min_iteration_coverage = std::min(
                split.min_iteration_coverage, child[i - first] / dur);
        }
    }
    return split;
}

/** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
void
writeSpans(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    double t0 = tracer.spans.empty() ? 0.0 : tracer.spans.front().start;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &s = tracer.spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                      "\"parent\":%d}}",
                      i ? "," : "", s.name, (s.start - t0) * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent);
        os << buf;
    }
    os << "]}\n";
}

// ---------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------

using Values = std::map<std::string, double>;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile with at least ten samples beyond it: the
 * eleventh-largest sample (the largest when there are fewer).
 */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double
tailPercent(std::size_t n)
{
    return n > 10 ? 100.0 * double(n - 10) / double(n) : 100.0;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
get(const Values &v, const std::string &key)
{
    auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
}

/** Sum one machine's collectStatsValues() into @p acc. Rates are
 *  recomputed from the summed counts; the switch-latency mean is
 *  carried as a sum so machines combine by weight. */
void
accumulateStats(Values &acc, Machine &machine)
{
    Values v;
    machine.collectStatsValues(v);
    for (const auto &[key, value] : v)
        acc[key] += value;
    acc["pcu.switch_latency.sum"] += get(v, "pcu.switch_latency.mean") *
                                     get(v, "pcu.switch_latency.count");
}

/** Map summed stat keys onto the per-layer metric names. */
void
layerCounts(const Values &s, const Values &block, Values &out)
{
    double insts = get(s, "core.instructions");
    double cycles = get(s, "core.cycles");
    out["cpu.instructions"] = insts;
    out["cpu.cycles"] = cycles;
    out["cpu.ipc"] = ratio(insts, cycles);
    out["cpu.traps"] = get(s, "core.traps");
    out["cpu.gates"] = get(s, "core.gates");
    out["cpu.csr_accesses"] = get(s, "core.csr_accesses");

    double dc_lookups = get(s, "host.decode_cache.hits") +
                        get(s, "host.decode_cache.misses");
    out["cpu.decode_cache.lookups"] = dc_lookups;
    out["cpu.decode_cache.hit_rate"] =
        ratio(get(s, "host.decode_cache.hits"), dc_lookups);
    out["cpu.decode_cache.invalidations"] =
        get(s, "host.decode_cache.invalidations");

    double block_insts = get(block, "core.instructions");
    out["cpu.block.instructions"] = block_insts;
    out["cpu.block.residency"] =
        ratio(get(block, "host.block.translated_insts"), block_insts);
    out["cpu.block.translations"] = get(block, "host.block.translations");
    double chain_probes = get(block, "host.block.chain_hits") +
                          get(block, "host.block.chain_misses");
    out["cpu.block.chain_probes"] = chain_probes;
    out["cpu.block.chain_hit_rate"] =
        ratio(get(block, "host.block.chain_hits"), chain_probes);
    double memo_probes = get(block, "host.block.memo_hits") +
                         get(block, "host.block.memo_fills");
    out["cpu.block.memo_probes"] = memo_probes;
    out["cpu.block.memo_hit_rate"] =
        ratio(get(block, "host.block.memo_hits"), memo_probes);
    out["cpu.block.fallbacks"] = get(block, "host.block.fallbacks");

    auto level = [&](const char *metric, const std::string &key) {
        double hits = get(s, key + ".hits");
        double misses = get(s, key + ".misses");
        out[std::string(metric) + ".lookups"] = hits + misses;
        out[std::string(metric) + ".miss_rate"] =
            ratio(misses, hits + misses);
    };
    level("mem.l1i", "icache.hierarchy.l1i");
    level("mem.l1d", "dcache.hierarchy.l1d");
    level("mem.l2d", "dcache.hierarchy.l2d");
    level("mem.l3d", "dcache.hierarchy.l3d");
    level("mem.itlb", "itlb");
    level("mem.dtlb", "dtlb");
    out["mem.dram_accesses"] = get(s, "icache.hierarchy.mem_accesses") +
                               get(s, "dcache.hierarchy.mem_accesses");

    out["isagrid.inst_checks"] = get(s, "pcu.inst_checks");
    out["isagrid.csr_checks"] =
        get(s, "pcu.csr_read_checks") + get(s, "pcu.csr_write_checks");
    out["isagrid.mask_checks"] = get(s, "pcu.mask_checks");
    out["isagrid.switches"] = get(s, "pcu.switches");
    out["isagrid.extended_calls"] = get(s, "pcu.extended_calls");
    out["isagrid.faults"] = get(s, "pcu.faults");
    for (const char *cache : {"inst", "reg", "mask", "sgt"}) {
        std::string key = std::string("pcu.") + cache + "_cache";
        std::string metric = std::string("isagrid.") + cache + "_cache";
        double lookups = get(s, key + ".lookups");
        out[metric + ".lookups"] = lookups;
        out[metric + ".hit_rate"] = ratio(get(s, key + ".hits"), lookups);
    }
    out["isagrid.switch_latency_mean"] =
        ratio(get(s, "pcu.switch_latency.sum"),
              get(s, "pcu.switch_latency.count"));
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** What one iteration measured. */
struct Sample
{
    double iter_wall_s = 0;
    double setup_cpu_s = 0;
    double sim_insts = 0;
    double sim_cpu_s = 0;
    double cases = 0;
    double case_cpu_s = 0;
    double calib_s = 0; //!< the host-speed reference after the iteration
    bool traced = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;
    /** Run one iteration; count checked operations into the totals. */
    virtual void iterate(Sample &sample) = 0;
    /** Per-layer work outside the timed iteration (traced rounds). */
    virtual void replay() {}
    /** Deterministic per-iteration counts, by per-layer metric name. */
    virtual Values counts() const = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  protected:
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Two runs ended identically (stop reason, fault, guest totals). */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.reason == b.reason && a.halt_code == b.halt_code &&
           a.fault == b.fault && a.fault_pc == b.fault_pc &&
           a.instructions == b.instructions && a.cycles == b.cycles;
}

/** Guest totals of one run; compared across iterations. */
struct GuestTotals
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    Cycle roi_cycles = 0;
    bool operator==(const GuestTotals &) const = default;
};

/**
 * A simulation workload: a fixed list of (machine, kernel, guest
 * program) jobs, each built, run to its halt and checked per
 * iteration. One job is one case.
 */
class SimWorkload : public Workload
{
  public:
    struct Job
    {
        bool x86 = false;
        KernelMode mode = KernelMode::Monolithic;
        std::optional<AppProfile> app; //!< empty: the LMbench suite
    };

    SimWorkload(const char *name, std::vector<Job> jobs,
                std::uint64_t max_insts)
        : name_(name), jobs_(std::move(jobs)), expected_(jobs_.size()),
          max_insts_(max_insts)
    {
    }

    const char *name() const override { return name_; }

    void
    iterate(Sample &sample) override
    {
        Values stats;
        double native_roi = 0, decomposed_roi = 0;
        double c_start = cpuNow();
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const Job &job = jobs_[j];
            double c0 = cpuNow();
            std::unique_ptr<Machine> machine;
            {
                Scope s("cpu.machine");
                MachineConfig mc;
                mc.pcu = PcuConfig::config8E();
                machine = job.x86 ? Machine::gem5x86(mc)
                                  : Machine::rocket(mc);
            }
            Addr entry = 0;
            {
                Scope s("workloads.build");
                entry = job.app ? buildApp(*machine, *job.app)
                                : buildLmbenchSuite(*machine,
                                                    kLmbenchIters);
            }
            KernelImage image;
            {
                Scope s("kernel.build");
                KernelConfig config;
                config.mode = job.mode;
                image = KernelBuilder(*machine, config).build(entry);
            }
            double c1 = cpuNow();
            RunResult r;
            {
                Scope s("cpu.run");
                r = machine->run(image.boot_pc, max_insts_);
            }
            double c2 = cpuNow();
            {
                Scope s("bench.check");
                bool halted = r.reason == StopReason::Halted;
                GuestTotals totals{r.instructions, r.cycles, 0};
                if (halted) {
                    totals.roi_cycles = job.app
                                            ? appRoiCycles(machine->core())
                                            : r.cycles;
                }
                if (!expected_[j])
                    expected_[j] = totals;
                check(halted && *expected_[j] == totals);
                accumulateStats(stats, *machine);
                (job.mode == KernelMode::Monolithic ? native_roi
                                                    : decomposed_roi) +=
                    double(totals.roi_cycles);
                machine.reset();
            }
            sample.setup_cpu_s += c1 - c0;
            sample.sim_cpu_s += c2 - c1;
            sample.sim_insts += double(r.instructions);
        }
        sample.cases = double(jobs_.size());
        sample.case_cpu_s = cpuNow() - c_start;
        counts_.clear();
        layerCounts(stats, stats, counts_);
        counts_["guest.native_cycles"] = native_roi;
        counts_["guest.delta_cycles"] = decomposed_roi - native_roi;
        counts_["guest.overhead_pct"] =
            100.0 * ratio(decomposed_roi - native_roi, native_roi);
    }

    Values counts() const override { return counts_; }

    /** Iterations per LMbench operation (the fig5 scenarios' size). */
    static constexpr unsigned kLmbenchIters = 5000;

  private:
    const char *name_;
    std::vector<Job> jobs_;
    std::vector<std::optional<GuestTotals>> expected_;
    std::uint64_t max_insts_;
    Values counts_;
};

std::unique_ptr<Workload>
makeLmbenchRiscv(std::uint64_t max_insts)
{
    std::vector<SimWorkload::Job> jobs = {
        {false, KernelMode::Monolithic, std::nullopt},
        {false, KernelMode::Decomposed, std::nullopt},
    };
    return std::make_unique<SimWorkload>("lmbench_riscv", std::move(jobs),
                                         max_insts);
}

/**
 * Unrolled blocks per app run: a third of the Fig. 7 length (24000),
 * so an iteration of all eight runs takes about a second and a run of
 * half a minute yields enough iterations for a tail percentile.
 */
constexpr unsigned kAppBlocks = 8000;

std::unique_ptr<Workload>
makeAppsX86(std::uint64_t seed, std::uint64_t max_insts)
{
    SplitMix64 rng(seed ^ 0xa995eed5ULL);
    std::vector<SimWorkload::Job> jobs;
    for (AppProfile profile : AppProfile::all()) {
        profile.seed = rng.next();
        profile.total_blocks = kAppBlocks;
        jobs.push_back({true, KernelMode::Monolithic, profile});
        jobs.push_back({true, KernelMode::Decomposed, profile});
    }
    return std::make_unique<SimWorkload>("apps_x86", std::move(jobs),
                                         max_insts);
}

std::unique_ptr<Machine>
restore(const FuzzArtifact &artifact, bool block_engine = false)
{
    Scope s("fuzz.restore");
    return artifact.restore(block_engine);
}

/**
 * The trust stack: per ISA, the built-in seed corpus, each seed's
 * interpreter run, and a fixed-size deterministic fuzz campaign.
 * Traced rounds also replay freshly mutated cases through each oracle
 * entry point, timed one by one.
 */
class TrustWorkload : public Workload
{
  public:
    explicit TrustWorkload(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "trust_stack"; }

    void
    iterate(Sample &sample) override
    {
        std::array<std::vector<FuzzArtifact>, 2> seeds;
        double c0 = cpuNow();
        {
            Scope s("fuzz.seeds");
            seeds[0] = builtinSeeds(false);
            seeds[1] = builtinSeeds(true);
        }
        sample.setup_cpu_s = cpuNow() - c0;

        // The interpreter oracle's run of every seed. Restore is timed
        // with the run: every short fuzz run pays it.
        seed_stats_.clear();
        for (int isa = 0; isa < 2; ++isa) {
            std::vector<RunResult> results;
            for (const FuzzArtifact &artifact : seeds[isa]) {
                Scope s("fuzz.seedrun");
                double t0 = cpuNow();
                auto machine = restore(artifact);
                artifact.position(*machine);
                {
                    Scope r("cpu.run");
                    results.push_back(
                        machine->core().run(OracleOptions{}.run_insts));
                }
                sample.sim_cpu_s += cpuNow() - t0;
                sample.sim_insts += double(results.back().instructions);
                accumulateStats(seed_stats_, *machine);
            }
            Scope s("bench.check");
            if (seed_runs_[isa].empty())
                seed_runs_[isa] = results;
            for (std::size_t i = 0; i < results.size(); ++i) {
                check(i < seed_runs_[isa].size() &&
                      sameRun(results[i], seed_runs_[isa][i]));
            }
        }

        fuzz_counts_ = {};
        for (int isa = 0; isa < 2; ++isa) {
            FuzzOptions options;
            options.x86 = isa == 1;
            options.seed = seed_;
            options.max_iters = kCampaignCases;
            options.jobs = 1;
            FuzzResult result;
            double t0 = cpuNow();
            {
                Scope s("fuzz.campaign");
                result = runFuzz(options);
            }
            sample.case_cpu_s += cpuNow() - t0;
            sample.cases += double(result.stats.cases);
            Scope s("bench.check");
            std::string json = result.json();
            if (campaign_json_[isa].empty())
                campaign_json_[isa] = json;
            check(result.clean() && json == campaign_json_[isa]);
            fuzz_counts_["fuzz.cases"] += double(result.stats.cases);
            fuzz_counts_["fuzz.retained"] += double(result.stats.retained);
            fuzz_counts_["fuzz.coverage_keys"] +=
                double(result.coverage.size());
            fuzz_counts_["fuzz.contract_runs"] +=
                double(result.stats.contract_runs);
            corpus_[isa] = std::move(result.corpus);
        }
    }

    void
    replay() override
    {
        replay_block_.clear();
        mc_states_ = 0;
        replay_cases_ = 0;
        for (int isa = 0; isa < 2; ++isa) {
            std::unique_ptr<Machine> probe;
            {
                Scope s("cpu.machine");
                probe = isa ? Machine::gem5x86() : Machine::rocket();
            }
            const std::vector<FuzzArtifact> &corpus = corpus_[isa];
            if (corpus.empty())
                continue;
            SplitMix64 rng(seed_ ^ 0x5e91a7ULL ^ std::uint64_t(isa));
            for (unsigned k = 0; k < kReplayCases; ++k) {
                Scope s("fuzz.case");
                FuzzArtifact artifact;
                {
                    Scope m("fuzz.mutate");
                    artifact = corpus[rng.below(corpus.size())];
                    std::uint64_t count = 1 + rng.below(3);
                    for (std::uint64_t i = 0; i < count; ++i) {
                        Mutation mutation =
                            generateMutation(rng, artifact, probe->isa());
                        applyMutations(artifact, {mutation});
                    }
                }
                bool contract = k % FuzzOptions{}.contract_stride == 0;
                replayCase(artifact, contract);
                ++replay_cases_;
            }
        }
    }

    /** cpu.*, mem.* and isagrid.* from the seed runs; cpu.block.*
     *  from the replays' block-engine oracle. */
    Values
    counts() const override
    {
        Values out = fuzz_counts_;
        layerCounts(seed_stats_, replay_block_, out);
        out["modelcheck.states"] = mc_states_;
        out["fuzz.replay_cases"] = replay_cases_;
        return out;
    }

    /** Mutated cases per ISA per campaign. */
    static constexpr std::uint64_t kCampaignCases = 32;
    /** Mutated cases per ISA per traced replay. */
    static constexpr unsigned kReplayCases = 16;

  private:
    /**
     * Every oracle the campaign runs on one case, each through its
     * public entry point and in its own span, with the campaign's
     * default bounds. Checks the engine-equivalence and mc-replay
     * agreements.
     */
    void
    replayCase(const FuzzArtifact &artifact, bool run_contract)
    {
        const OracleOptions bounds;
        RunResult ri, rb;
        std::string interp_dump, block_dump;
        {
            Scope s("fuzz.interp");
            auto machine = restore(artifact);
            artifact.position(*machine);
            ri = machine->core().run(bounds.run_insts);
            std::ostringstream os;
            machine->dumpStats(os);
            interp_dump = os.str();
        }
        {
            Scope s("fuzz.block");
            auto machine = restore(artifact, true);
            artifact.position(*machine);
            rb = machine->core().run(bounds.run_insts);
            std::ostringstream os;
            machine->dumpStats(os);
            block_dump = os.str();
            accumulateStats(replay_block_, *machine);
        }
        bool ok = sameRun(ri, rb) && interp_dump == block_dump;

        auto pristine = restore(artifact);
        const IsaModel &isa = pristine->isa();
        const PolicySnapshot &snap = artifact.snapshot;
        {
            Scope s("verify.run");
            VerifyOptions options;
            options.entries = artifact.entries;
            Verifier(isa, pristine->mem(), snap, artifact.regions, options)
                .run();
        }
        {
            Scope s("verify.xscan");
            XscanScenario scenario;
            scenario.build = [&artifact] { return restore(artifact); };
            scenario.entries = artifact.entries;
            scenario.code_regions = artifact.regions;
            XscanOptions options;
            options.max_findings = bounds.xscan_max_findings;
            runXscan(scenario, options);
        }
        {
            Scope s("modelcheck.run");
            McOptions options;
            options.depth_bound = bounds.mc_depth;
            options.max_states = bounds.mc_max_states;
            options.max_violations = 16;
            ModelChecker checker(isa, pristine->mem(), snap,
                                 artifact.regions, artifact.analysisDomain(),
                                 options);
            McResult mc = checker.run();
            mc_states_ += double(mc.stats.states);
            std::size_t replays = 0;
            for (const McViolation &f : mc.findings) {
                if (f.trace.empty() || replays >= bounds.mc_max_replays)
                    continue;
                ++replays;
                auto machine = restore(artifact);
                ok = ok && replayTrace(*machine, f.trace, snap,
                                       artifact.analysisDomain())
                               .ok;
            }
        }
        {
            Scope s("verify.minpriv");
            PrivilegeInference inference(isa, pristine->mem(), snap,
                                         artifact.regions);
            for (Addr e : artifact.entries) {
                DomainId domain = 0;
                for (const CodeRegion &r : artifact.regions) {
                    if (r.contains(e)) {
                        domain = r.domain;
                        break;
                    }
                }
                inference.addEntry(domain, e);
            }
            MinimizeResult minimized =
                minimizePolicy(isa, pristine->mem(), snap, inference);
            if (minimized.subset) {
                auto machine = restore(artifact);
                applyMinimizedPolicy(isa, machine->mem(), snap, minimized,
                                     &machine->pcu());
                artifact.position(*machine);
                machine->core().run(bounds.run_insts);
            }
        }
        if (run_contract) {
            Scope s("contract.run");
            ContractScenario scenario;
            scenario.build = [&artifact] { return restore(artifact); };
            scenario.start_pc = artifact.start_pc;
            scenario.start_domain = artifact.start_domain;
            scenario.code_regions = artifact.regions;
            ContractOptions options;
            options.max_windows = bounds.contract_windows;
            options.max_insts = bounds.contract_insts;
            options.depth_bound = bounds.contract_depth;
            options.max_states = bounds.contract_states;
            checkContract(scenario, options);
        }
        check(ok);
    }

    std::uint64_t seed_;
    std::array<std::vector<RunResult>, 2> seed_runs_;
    std::array<std::string, 2> campaign_json_;
    std::array<std::vector<FuzzArtifact>, 2> corpus_;
    Values fuzz_counts_;
    Values seed_stats_;
    Values replay_block_;
    double mc_states_ = 0;
    double replay_cases_ = 0;
};

// ---------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------

/**
 * A fixed loop that runs after every iteration: 2^20 random 8-byte
 * reads over a 4 MiB buffer. That working set is about the simulator's
 * own, larger than a core's L2, so both run from the shared last-level
 * cache. On a shared host, other tenants' use of that cache moves every
 * host time here by up to ±30% over minutes, and this loop moves with
 * the simulator (see README.md, "Noise"). Host times are therefore
 * reported scaled by kReferenceS / (median loop time of the run): as
 * on a host where the loop takes kReferenceS.
 */
class HostReference
{
  public:
    /** The loop's time on the measuring host when it is quiet. */
    static constexpr double kReferenceS = 2.5e-3;

    HostReference() : buf_(std::size_t(1) << 19)
    {
        for (std::size_t i = 0; i < buf_.size(); ++i)
            buf_[i] = i * 0x9e3779b97f4a7c15ULL;
    }

    /** Thread CPU seconds of one pass. */
    double
    measure()
    {
        double t0 = cpuNow();
        std::uint64_t idx = 1, sum = 0;
        for (unsigned i = 0; i < (1u << 20); ++i) {
            idx = idx * 6364136223846793005ULL + 1442695040888963407ULL;
            sum += buf_[(idx >> 20) & (buf_.size() - 1)];
        }
        sink_ = sum;
        return cpuNow() - t0;
    }

  private:
    std::vector<std::uint64_t> buf_;
    volatile std::uint64_t sink_ = 0; //!< keeps the reads observable
};

// ---------------------------------------------------------------------
// Metric tables (must match BENCHMARK.json)
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},       {"sim_mips", "Minst/s"},
    {"cases_per_s", "1/s"}, {"iter_s", "s"},
    {"iter_s_tail", "s"},   {"peak_rss_mb", "MB"},
};

/** Span names whose median self time per round is a metric. */
const std::vector<const char *> kLayerSpans = {
    "cpu.machine",    "fuzz.restore",   "workloads.build", "kernel.build",
    "fuzz.seeds",     "cpu.run",        "fuzz.campaign",   "fuzz.mutate",
    "fuzz.interp",    "fuzz.block",     "verify.run",      "verify.xscan",
    "modelcheck.run", "verify.minpriv", "contract.run",    "bench.check",
};

const std::vector<MetricDef> kPerLayerCounts = {
    {"cpu.ns_per_inst", "ns"},
    {"cpu.instructions", "count"},
    {"cpu.cycles", "cycles"},
    {"cpu.ipc", "ratio"},
    {"cpu.traps", "count"},
    {"cpu.gates", "count"},
    {"cpu.csr_accesses", "count"},
    {"cpu.decode_cache.lookups", "count"},
    {"cpu.decode_cache.hit_rate", "ratio"},
    {"cpu.decode_cache.invalidations", "count"},
    {"cpu.block.instructions", "count"},
    {"cpu.block.residency", "ratio"},
    {"cpu.block.translations", "count"},
    {"cpu.block.chain_probes", "count"},
    {"cpu.block.chain_hit_rate", "ratio"},
    {"cpu.block.memo_probes", "count"},
    {"cpu.block.memo_hit_rate", "ratio"},
    {"cpu.block.fallbacks", "count"},
    {"mem.l1i.lookups", "count"},
    {"mem.l1i.miss_rate", "ratio"},
    {"mem.l1d.lookups", "count"},
    {"mem.l1d.miss_rate", "ratio"},
    {"mem.l2d.lookups", "count"},
    {"mem.l2d.miss_rate", "ratio"},
    {"mem.l3d.lookups", "count"},
    {"mem.l3d.miss_rate", "ratio"},
    {"mem.dram_accesses", "count"},
    {"mem.itlb.lookups", "count"},
    {"mem.itlb.miss_rate", "ratio"},
    {"mem.dtlb.lookups", "count"},
    {"mem.dtlb.miss_rate", "ratio"},
    {"isagrid.inst_checks", "count"},
    {"isagrid.csr_checks", "count"},
    {"isagrid.mask_checks", "count"},
    {"isagrid.switches", "count"},
    {"isagrid.extended_calls", "count"},
    {"isagrid.faults", "count"},
    {"isagrid.inst_cache.lookups", "count"},
    {"isagrid.inst_cache.hit_rate", "ratio"},
    {"isagrid.reg_cache.lookups", "count"},
    {"isagrid.reg_cache.hit_rate", "ratio"},
    {"isagrid.mask_cache.lookups", "count"},
    {"isagrid.mask_cache.hit_rate", "ratio"},
    {"isagrid.sgt_cache.lookups", "count"},
    {"isagrid.sgt_cache.hit_rate", "ratio"},
    {"isagrid.switch_latency_mean", "cycles"},
    {"guest.native_cycles", "cycles"},
    {"guest.delta_cycles", "cycles"},
    {"guest.overhead_pct", "%"},
    {"fuzz.cases", "count"},
    {"fuzz.retained", "count"},
    {"fuzz.coverage_keys", "count"},
    {"fuzz.contract_runs", "count"},
    {"fuzz.replay_cases", "count"},
    {"modelcheck.states", "count"},
    {"host.reference_ms", "ms"},
    {"host.raw_setup_s", "s"},
    {"host.raw_sim_mips", "Minst/s"},
    {"host.raw_cases_per_s", "1/s"},
    {"host.raw_iter_s", "s"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"iter.samples", "count"},
    {"iter.tail_pct", "%"},
};

/** Everything measured for one workload over the run. */
struct Record
{
    std::unique_ptr<Workload> workload;
    std::vector<Sample> samples;
    std::map<std::string, std::vector<double>> layer_s;
    double min_coverage = 1.0;
    std::size_t spans = 0;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Metric name -> (value, unit) for one workload. */
std::vector<std::pair<std::string, std::pair<double, std::string>>>
metricsOf(const Record &rec, bool traced_run)
{
    std::vector<double> iter, iter_traced, setup, mips, cases, reference;
    for (const Sample &s : rec.samples) {
        (s.traced ? iter_traced : iter).push_back(s.iter_wall_s);
        setup.push_back(s.setup_cpu_s);
        mips.push_back(ratio(s.sim_insts, s.sim_cpu_s) * 1e-6);
        cases.push_back(ratio(s.cases, s.case_cpu_s));
        reference.push_back(s.calib_s);
    }
    // Host times as on the reference host (see HostReference).
    double scale = ratio(HostReference::kReferenceS, median(reference));
    std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
    if (!traced_run) {
        const double values[] = {median(setup) * scale,
                                 ratio(median(mips), scale),
                                 ratio(median(cases), scale),
                                 median(iter) * scale,
                                 tail(iter) * scale,
                                 peakRssMb()};
        for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
            out.push_back({kEndToEnd[i].name,
                           {values[i], kEndToEnd[i].unit}});
        return out;
    }
    Values layers;
    for (const char *span : kLayerSpans) {
        auto it = rec.layer_s.find(span);
        layers[std::string(span) + "_s"] =
            it == rec.layer_s.end() ? 0.0 : median(it->second);
    }
    for (const char *span : kLayerSpans)
        out.push_back({std::string(span) + "_s",
                       {layers[std::string(span) + "_s"], "s"}});

    Values counts = rec.workload->counts();
    counts["cpu.ns_per_inst"] =
        1e9 * ratio(layers["cpu.run_s"], counts["cpu.instructions"]);
    counts["host.reference_ms"] = 1e3 * median(reference);
    counts["host.raw_setup_s"] = median(setup);
    counts["host.raw_sim_mips"] = median(mips);
    counts["host.raw_cases_per_s"] = median(cases);
    counts["host.raw_iter_s"] = median(iter);
    double untraced = median(iter);
    counts["trace.coverage_pct"] = 100.0 * rec.min_coverage;
    counts["trace.overhead_pct"] =
        100.0 * ratio(median(iter_traced) - untraced, untraced);
    counts["trace.spans"] = double(rec.spans);
    counts["iter.samples"] = double(rec.samples.size());
    counts["iter.tail_pct"] = tailPercent(iter.size());
    for (const MetricDef &m : kPerLayerCounts)
        out.push_back({m.name, {get(counts, m.name), m.unit}});
    return out;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "<lmbench_riscv|apps_x86|trust_stack|all> --seed N "
                 "--seconds S --trace <0|1> [--trace-out FILE] "
                 "[--max-insts N]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage(("bad value for " + flag + ": " + text).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_arg;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::string trace_out;
    std::uint64_t max_insts = 500'000'000;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            workload_arg = value;
        else if (flag == "--seed")
            seed = parseUint(flag, value);
        else if (flag == "--seconds")
            seconds = parseUint(flag, value);
        else if (flag == "--trace")
            trace = parseUint(flag, value) != 0;
        else if (flag == "--trace-out")
            trace_out = value;
        else if (flag == "--max-insts")
            max_insts = parseUint(flag, value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (seconds == 0)
        usage("--seconds must be at least 1");

    std::vector<Record> records;
    auto add = [&](const std::string &name) {
        Record rec;
        if (name == "lmbench_riscv")
            rec.workload = makeLmbenchRiscv(max_insts);
        else if (name == "apps_x86")
            rec.workload = makeAppsX86(seed, max_insts);
        else if (name == "trust_stack")
            rec.workload = std::make_unique<TrustWorkload>(seed);
        else
            usage(("unknown workload " + name).c_str());
        records.push_back(std::move(rec));
    };
    if (workload_arg == "all") {
        for (const char *name : {"lmbench_riscv", "apps_x86", "trust_stack"})
            add(name);
    } else {
        add(workload_arg);
    }

    HostReference reference;

    // Warm-up: one unmeasured iteration each (its checks still count).
    for (Record &rec : records) {
        Sample warmup;
        rec.workload->iterate(warmup);
    }

    // Measured rounds, round-robin across the selected workloads; with
    // --trace 1 every other round is traced.
    double start = wallNow();
    for (std::uint64_t round = 0; wallNow() - start < double(seconds);
         ++round) {
        for (Record &rec : records) {
            Sample sample;
            sample.traced = trace && round % 2 == 1;
            tracer.enabled = sample.traced;
            std::size_t first = tracer.spans.size();
            double w0 = wallNow();
            {
                Scope s("iteration");
                rec.workload->iterate(sample);
            }
            sample.iter_wall_s = wallNow() - w0;
            sample.calib_s = reference.measure();
            if (sample.traced) {
                {
                    Scope s("fuzz.replay");
                    rec.workload->replay();
                }
                LayerSplit split = splitLayers(first);
                for (const auto &[name, self] : split.self_s)
                    rec.layer_s[name].push_back(self);
                rec.min_coverage =
                    std::min(rec.min_coverage, split.min_iteration_coverage);
                rec.spans += tracer.spans.size() - first;
            }
            tracer.enabled = false;
            rec.samples.push_back(sample);
        }
    }
    if (trace && !trace_out.empty())
        writeSpans(trace_out);

    // Human-readable summary, then the one-line JSON result.
    std::uint64_t attempted = 0, failed = 0;
    std::string metrics_json;
    for (const Record &rec : records) {
        const Workload &w = *rec.workload;
        attempted += w.attempted;
        failed += w.failed;
        std::vector<double> iter, reference_s;
        for (const Sample &s : rec.samples) {
            if (!s.traced)
                iter.push_back(s.iter_wall_s);
            reference_s.push_back(s.calib_s);
        }
        std::printf("%s: failed/attempted %llu/%llu, raw iter_s median %s "
                    "s, p%.0f %s s (n=%zu), host reference %.3f ms\n",
                    w.name(), (unsigned long long)w.failed,
                    (unsigned long long)w.attempted,
                    number(median(iter)).c_str(), tailPercent(iter.size()),
                    number(tail(iter)).c_str(), iter.size(),
                    1e3 * median(reference_s));
        if (trace && rec.min_coverage < 0.95) {
            std::printf("%s: WARNING spans cover only %.1f%% of an "
                        "iteration (< 95%%)\n",
                        w.name(), 100.0 * rec.min_coverage);
        }
        std::string prefix =
            records.size() > 1 ? std::string(w.name()) + "." : "";
        for (const auto &[name, vu] : metricsOf(rec, trace)) {
            std::printf("  %-34s %s %s\n", (prefix + name).c_str(),
                        number(vu.first).c_str(), vu.second.c_str());
            if (!metrics_json.empty())
                metrics_json += ", ";
            metrics_json += "\"" + prefix + name + "\": {\"value\": " +
                            number(vu.first) + ", \"unit\": \"" +
                            vu.second + "\"}";
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                metrics_json.c_str());
    return 0;
}
