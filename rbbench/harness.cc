/**
 * @file
 * rbbench harness: runs one closed workload of the rbsim benchmark, or
 * the isolated layer probes of the served workload, through rbsim's
 * public entry points and prints the raw samples as one JSON object on
 * stdout. rbbench/run.py turns the samples into metrics and
 * rbbench/README.md defines each metric.
 *
 *   rbbench-harness paper-grid|gen-grid|sampled-campaign
 *                  --seed N --seconds S --trace 0|1
 *   rbbench-harness serve-layers --seed N --seconds S < request-lines
 *   rbbench-harness describe
 *
 * A closed workload sets up its inputs several times (the last set-up
 * with the real seed; the earlier ones with derived seeds, so that the
 * process-wide predecode cache is cold each time), then runs whole
 * passes over its inputs on a fresh SimService until the time is used.
 * With --trace 1 it alternates untraced and traced passes (the traced
 * ones record spans around every call into a layer) and then runs the
 * single-thread layer probes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/json.hh"
#include "common/rng.hh"
#include "core/machine_config.hh"
#include "func/interp.hh"
#include "func/predecode.hh"
#include "rb/rbalu.hh"
#include "rb/simd/kernels.hh"
#include "serve/protocol.hh"
#include "serve/sampled.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "sim/fastfwd.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

using namespace rbsim;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point epoch = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// ------------------------------------------------------------- spans

/** One span: a call into a layer, timed from the benchmark's side. */
struct Span
{
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;       //!< index of the enclosing span, -1 = root
    std::uint64_t job = 0; //!< spans of one job share this id
    double count = 0;      //!< work done inside the span (layer units)
};

/** In-memory span log; written out once, at the end of the run. Only
 * the main thread records spans (job spans are added after the batch
 * completes, from the times the callbacks stored). */
class SpanLog
{
  public:
    bool on = false;

    int
    add(const std::string &name, double t0, double t1, int parent,
        std::uint64_t job, double count = 0)
    {
        if (!on)
            return -1;
        spans.push_back({name, t0, t1, parent, job, count});
        return int(spans.size()) - 1;
    }

    /** Open a span now; close it with close(). */
    int open(const std::string &name, int parent, std::uint64_t job)
    {
        return add(name, now(), 0, parent, job);
    }

    void
    close(int id, double count = 0)
    {
        if (id < 0)
            return;
        spans[id].t1 = now();
        spans[id].count = count;
    }

    Json
    toJson() const
    {
        Json a = Json::array();
        for (const Span &s : spans) {
            Json j = Json::object();
            j["name"] = Json(s.name);
            j["t0"] = Json(s.t0);
            j["t1"] = Json(s.t1);
            j["parent"] = Json(s.parent);
            j["job"] = Json(s.job);
            j["count"] = Json(s.count);
            a.push(std::move(j));
        }
        return a;
    }

  private:
    std::vector<Span> spans;
};

SpanLog spanLog;

/** Span around a scope on the calling thread. */
struct Scoped
{
    int id;
    double count = 0;
    Scoped(const std::string &name, int parent, std::uint64_t job = 0)
        : id(spanLog.open(name, parent, job))
    {}
    ~Scoped() { spanLog.close(id, count); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
};

// --------------------------------------------------------- workloads

constexpr MachineKind paperKinds[] = {MachineKind::Baseline,
                                      MachineKind::RbLimited,
                                      MachineKind::RbFull,
                                      MachineKind::Ideal};

/** Workload scale factors and the sampling regimen (README.md). The
 * grids are scaled up so that one pass lasts several seconds. */
constexpr unsigned paperGridScale = 2;
constexpr unsigned genGridScale = 6;
constexpr unsigned campaignScale = 40;
constexpr std::uint64_t probeInsts = 40'000; //!< per probe Simulator run

SamplingOptions
campaignRegimen()
{
    SamplingOptions o;
    o.skipInsts = 20'000;
    o.periodInsts = 300'000;
    o.warmupInsts = 2'000;
    o.measureInsts = 10'000;
    o.cosim = true;
    return o;
}

struct ProgSpec
{
    std::string name;
    unsigned scale;
};

/** What one workload runs. */
struct WorkloadDef
{
    std::vector<ProgSpec> progs;
    std::vector<MachineConfig> machines;
    bool sampled = false;
    //! Indices into progs/machines of the single-thread probe pairs.
    std::vector<std::size_t> probeProgs, probeMachines;
};

WorkloadDef
defineWorkload(const std::string &name)
{
    WorkloadDef d;
    if (name == "paper-grid") {
        for (const auto &w : suiteWorkloads("spec95"))
            d.progs.push_back({w.name, paperGridScale});
        for (unsigned width : {4u, 8u})
            for (MachineKind k : paperKinds)
                d.machines.push_back(MachineConfig::make(k, width));
        d.probeProgs = {2};        // gcc
        d.probeMachines = {0, 2};  // Baseline, RB-full at 4-wide
    } else if (name == "gen-grid") {
        for (const char *p : {"chase-l2", "chase-mem", "ycsb-a",
                              "zipf-0.99", "branch-0.50",
                              "rb-adversarial"})
            d.progs.push_back({p, genGridScale});
        for (MachineKind k : paperKinds)
            d.machines.push_back(MachineConfig::make(k, 4));
        d.probeProgs = {1, 5};     // chase-mem, rb-adversarial
        d.probeMachines = {0, 2};
    } else if (name == "sampled-campaign") {
        for (const char *p : {"gcc", "vortex", "li"})
            d.progs.push_back({p, campaignScale});
        d.progs.push_back({"ycsb-a", campaignScale});
        d.machines = {MachineConfig::make(MachineKind::Baseline, 4),
                      MachineConfig::make(MachineKind::RbFull, 4)};
        d.sampled = true;
        d.probeProgs = {0};
        d.probeMachines = {0, 1};
    } else if (name == "serve-layers") {
        // The served mix's most common program; the server builds
        // registered workloads with the default seed.
        d.progs = {{"gcc", 1}};
        d.machines = {MachineConfig::make(MachineKind::Baseline, 4),
                      MachineConfig::make(MachineKind::RbFull, 4)};
        d.probeProgs = {0};
        d.probeMachines = {0, 1};
    } else {
        throw std::invalid_argument("unknown workload \"" + name + "\"");
    }
    return d;
}

/** Built inputs plus the set-up timings that produced them. */
struct Inputs
{
    std::vector<Program> progs;
    std::vector<std::unique_ptr<Simulator>> sims; //!< one per machine
    double buildMs = 0, decodeMs = 0, constructMs = 0, serviceMs = 0;
    double total = 0;
};

Inputs
setUp(const WorkloadDef &d, std::uint64_t seed, bool fixed_seed)
{
    Inputs in;
    const double t0 = now();
    Scoped setup("setup", -1);
    double t = now();
    for (const ProgSpec &p : d.progs) {
        Scoped s("workloads.build", setup.id);
        WorkloadParams wp;
        wp.scale = p.scale;
        if (!fixed_seed)
            wp.seed = seed;
        in.progs.push_back(findWorkload(p.name).build(wp));
        s.count = double(in.progs.back().code.size());
    }
    in.buildMs = (now() - t) * 1e3;
    t = now();
    for (const Program &p : in.progs) {
        Scoped s("func.decode", setup.id);
        s.count = double(decodeProgram(p)->ops.size());
    }
    in.decodeMs = (now() - t) * 1e3;
    t = now();
    for (const MachineConfig &m : d.machines) {
        Scoped s("sim.construct", setup.id);
        in.sims.push_back(std::make_unique<Simulator>(m));
    }
    in.constructMs = (now() - t) * 1e3;
    // The service is ready once constructed; its worker threads are
    // joined after the timing, on return.
    t = now();
    std::unique_ptr<serve::SimService> service;
    {
        Scoped s("service.start", setup.id);
        service = std::make_unique<serve::SimService>();
        s.count = service->workers();
    }
    in.serviceMs = (now() - t) * 1e3;
    in.total = now() - t0;
    return in;
}

// ------------------------------------------------------------ checks

struct Checks
{
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    }
};

/** A detailed run is clean when cosim checked every retired instruction
 * and it halted or reached its budget. */
std::string
detailedProblem(const SimResult &r)
{
    if (!r.halted && !r.instLimited)
        return "stopped without HALT or budget";
    if (r.counter("cosim.checked") != r.counter("core.retired"))
        return "cosim checked " + std::to_string(r.counter("cosim.checked")) +
               " of " + std::to_string(r.counter("core.retired"));
    return "";
}

Json
statsDigestInput(const StatSnapshot &s)
{
    Json j = Json::object();
    Json c = Json::object();
    for (const auto &[k, v] : s.counters)
        c[k] = Json(v);
    j["counters"] = std::move(c);
    Json v = Json::object();
    for (const auto &[k, xs] : s.vectors) {
        Json a = Json::array();
        for (std::uint64_t x : xs)
            a.push(Json(x));
        v[k] = std::move(a);
    }
    j["vectors"] = std::move(v);
    return j;
}

// ------------------------------------------------------------ passes

struct Pass
{
    bool traced = false;
    double wall = 0, cpu = 0;
    double detailedInsts = 0, coveredInsts = 0;
    std::vector<double> latencyMs, hostMs;
    std::uint64_t jobs = 0;
    std::uint64_t workers = 0, warmSims = 0, cacheHits = 0, cacheMisses = 0;
    StatSnapshot merged;
};

/** The grid's cells in the order the figure benches submit them
 * (bench/bench_common.cc sweep: program-major, machine-minor), one figure
 * grid per width, all in one batch. */
std::vector<std::pair<std::size_t, std::size_t>>
gridCells(const WorkloadDef &d)
{
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t first = 0; first < d.machines.size();) {
        std::size_t end = first;
        while (end < d.machines.size() &&
               d.machines[end].width == d.machines[first].width)
            ++end;
        for (std::size_t p = 0; p < d.progs.size(); ++p)
            for (std::size_t m = first; m < end; ++m)
                cells.push_back({p, m});
        first = end;
    }
    return cells;
}

/** One pass over a grid on a fresh SimService. An untraced pass hands
 * the whole grid to runBatch, as a figure run does, so every result
 * arrives when the batch returns. A traced pass submits the same cells
 * in the same order one by one (what runBatch does for a grid without
 * duplicates) to time each job's completion. */
Pass
gridPass(const WorkloadDef &d, const Inputs &in, std::uint64_t pass_no,
         Checks &checks)
{
    Pass ps;
    ps.traced = spanLog.on;
    const auto cells = gridCells(d);
    std::vector<serve::JobSpec> specs(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        specs[i].cfg = d.machines[cells[i].second];
        specs[i].prog = in.progs[cells[i].first];
    }
    std::vector<double> doneAt(cells.size(), 0.0);
    std::vector<serve::JobOutcome> outs(cells.size());
    const double cpu0 = cpuSeconds();
    const double t0 = now();
    const int batch = spanLog.open("service.batch", -1, 0);
    serve::SimService svc;
    if (!ps.traced) {
        outs = svc.runBatch(std::move(specs));
        std::fill(doneAt.begin(), doneAt.end(), now());
    } else {
        {
            Scoped submit("service.submit", batch);
            for (std::size_t i = 0; i < cells.size(); ++i)
                svc.submit(std::move(specs[i]),
                           [&doneAt, &outs, i](serve::JobOutcome o) {
                               doneAt[i] = now();
                               outs[i] = std::move(o);
                           });
        }
        svc.wait();
    }
    ps.wall = now() - t0;
    spanLog.close(batch, double(cells.size()));
    ps.cpu = cpuSeconds() - cpu0;
    ps.workers = svc.workers();
    const auto ctr = svc.counters();
    ps.warmSims = ctr.warmSimulators;
    ps.cacheHits = ctr.cacheHits;
    ps.cacheMisses = ctr.cacheMisses;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const serve::JobOutcome &o = outs[i];
        const std::string where = d.machines[cells[i].second].label + "/" +
                                  d.progs[cells[i].first].name;
        ++checks.attempted;
        std::string problem;
        if (!o.ok)
            problem = o.error;
        else if (o.aborted)
            problem = "aborted (" + o.abortKind + ")";
        else
            problem = detailedProblem(o.result);
        if (!problem.empty()) {
            checks.fail(where + ": " + problem);
            continue;
        }
        const double host = o.result.hostSeconds;
        const std::uint64_t job = pass_no * 100000 + i + 1;
        const int js = spanLog.add("service.job", t0, doneAt[i], batch, job);
        const double retired = double(o.result.counter("core.retired"));
        spanLog.add("sim.run", doneAt[i] - host, doneAt[i], js, job, retired);
        ps.latencyMs.push_back((doneAt[i] - t0) * 1e3);
        ps.hostMs.push_back(host * 1e3);
        ps.detailedInsts += retired;
        accumulateWindowStats(ps.merged, o.result.stats);
    }
    ps.coveredInsts = ps.detailedInsts;
    ps.jobs = cells.size();
    return ps;
}

Pass
campaignPass(const WorkloadDef &d, const Inputs &in, std::uint64_t pass_no,
             Checks &checks)
{
    Pass ps;
    ps.traced = spanLog.on;
    const SamplingOptions opts = campaignRegimen();
    const double cpu0 = cpuSeconds();
    const double t0 = now();
    const int batch = spanLog.open("service.batch", -1, 0);
    serve::SimService svc;
    std::uint64_t job = pass_no * 100000;
    for (std::size_t p = 0; p < in.progs.size(); ++p) {
        for (const MachineConfig &m : d.machines) {
            ++job;
            ++checks.attempted;
            const double c0 = now();
            const int cs = spanLog.open("serve.runSampled", batch, job);
            const serve::SampledOutcome o =
                serve::runSampled(svc, m, in.progs[p], opts);
            const double c1 = now();
            const SampledResult &r = o.result;
            spanLog.close(cs, double(r.ffInsts));
            const std::string where = m.label + "/" + d.progs[p].name;
            if (!o.ok) {
                checks.fail(where + ": " + o.error);
                continue;
            }
            if (!r.completed || r.windows == 0) {
                checks.fail(where + ": campaign did not complete");
                continue;
            }
            if (r.merged.counter("cosim.checked") !=
                r.merged.counter("core.retired")) {
                checks.fail(where + ": windows not cosim-checked");
                continue;
            }
            ps.latencyMs.push_back((c1 - c0) * 1e3);
            ps.hostMs.push_back(r.hostSeconds * 1e3);
            ps.detailedInsts +=
                double(r.merged.counter("core.retired")) +
                double(r.windows * opts.warmupInsts);
            ps.coveredInsts += double(r.ffInsts);
            ps.jobs += r.windows;
            accumulateWindowStats(ps.merged, r.merged);
        }
    }
    ps.wall = now() - t0;
    spanLog.close(batch, double(job - pass_no * 100000));
    ps.cpu = cpuSeconds() - cpu0;
    ps.workers = svc.workers();
    const auto ctr = svc.counters();
    ps.warmSims = ctr.warmSimulators;
    ps.cacheHits = ctr.cacheHits;
    ps.cacheMisses = ctr.cacheMisses;
    return ps;
}

Json
passToJson(const Pass &p)
{
    Json j = Json::object();
    j["traced"] = Json(p.traced);
    j["wall_s"] = Json(p.wall);
    j["cpu_s"] = Json(p.cpu);
    j["detailed_insts"] = Json(p.detailedInsts);
    j["covered_insts"] = Json(p.coveredInsts);
    j["jobs"] = Json(p.jobs);
    j["workers"] = Json(p.workers);
    j["warm_simulators"] = Json(p.warmSims);
    j["cache_hits"] = Json(p.cacheHits);
    j["cache_misses"] = Json(p.cacheMisses);
    Json lat = Json::array(), host = Json::array();
    for (double x : p.latencyMs)
        lat.push(Json(x));
    for (double x : p.hostMs)
        host.push(Json(x));
    j["latency_ms"] = std::move(lat);
    j["host_ms"] = std::move(host);
    return j;
}

// ------------------------------------------------------------ probes

/** Median of a small sample (copy). */
double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Repeat `fn` (which returns the work it did) until `min_s` seconds
 * have passed; returns seconds per unit of work. */
template <class Fn>
double
perUnit(double min_s, Fn fn)
{
    double work = 0;
    const double t0 = now();
    double t = t0;
    do {
        work += fn();
        t = now();
    } while (t - t0 < min_s);
    return work > 0 ? (t - t0) / work : 0;
}

/** Single-thread Simulator timings on one (program, machine) pair. */
struct SimProbe
{
    double nsPerInst = 0, nsPerCycle = 0, cosimNs = 0, ringNs = 0;
};

SimProbe
probeSimulator(Simulator &sim, const Program &prog, std::uint64_t job,
               int parent)
{
    SimOptions on;
    on.maxInsts = probeInsts;
    SimOptions off = on;
    off.cosim = false;
    trace::Tracer::Options ro;
    ro.ringCap = 64;
    ro.codeBase = prog.codeBase;
    ro.decodeDepth = sim.config().fetchDecodeDepth;
    ro.renameDepth = sim.config().renameDepth;

    // Best of several: a difference of two timings is only as good as
    // the least-disturbed repetition of each on a shared host. The ring
    // costs several times the run itself, so it needs fewer repetitions.
    std::vector<double> tOn, tOff, tRing;
    double retired = 0, cycles = 0;
    for (int rep = 0; rep < 9; ++rep) {
        {
            Scoped s("sim.run", parent, job);
            const SimResult r = sim.run(prog, on);
            tOn.push_back(r.hostSeconds);
            retired = double(r.counter("core.retired"));
            cycles = double(r.counter("core.cycles"));
            s.count = retired;
        }
        {
            Scoped s("sim.run_nocosim", parent, job);
            tOff.push_back(sim.run(prog, off).hostSeconds);
            s.count = retired;
        }
        if (rep % 3 == 0) {
            Scoped s("sim.run_ring64", parent, job);
            trace::Tracer ring(ro);
            SimOptions traced = on;
            traced.tracer = &ring;
            tRing.push_back(sim.run(prog, traced).hostSeconds);
            s.count = retired;
        }
    }
    const double on_s = *std::min_element(tOn.begin(), tOn.end());
    const double off_s = *std::min_element(tOff.begin(), tOff.end());
    const double ring_s = *std::min_element(tRing.begin(), tRing.end());
    SimProbe p;
    p.nsPerInst = on_s * 1e9 / retired;
    p.nsPerCycle = on_s * 1e9 / cycles;
    p.cosimNs = (on_s - off_s) * 1e9 / retired;
    p.ringNs = (ring_s - on_s) * 1e9 / retired;
    return p;
}

/** The per-layer probes: every one runs single-threaded with no other
 * benchmark thread alive, so it is free of time-slicing by the pool. */
void
runProbes(const WorkloadDef &d, Inputs &in, std::uint64_t seed,
          double budget_s, const std::vector<std::string> &request_lines,
          Json &out)
{
    auto set = [&out](const char *k, double v) { out[k] = Json(v); };
    const int root = spanLog.open("probes", -1, 0);
    const double slice = std::max(0.05, budget_s / 12);
    std::uint64_t job = 900000000;

    // Simulator::run on the probe pairs.
    std::vector<double> nsInst, nsCycle, cosimNs, ringNs;
    SimResult sample;
    for (std::size_t p : d.probeProgs) {
        for (std::size_t m : d.probeMachines) {
            const SimProbe sp =
                probeSimulator(*in.sims[m], in.progs[p], ++job, root);
            nsInst.push_back(sp.nsPerInst);
            nsCycle.push_back(sp.nsPerCycle);
            cosimNs.push_back(sp.cosimNs);
            ringNs.push_back(sp.ringNs);
        }
    }
    {
        SimOptions o;
        o.maxInsts = probeInsts;
        sample = in.sims[d.probeMachines[0]]->run(in.progs[d.probeProgs[0]],
                                                  o);
    }
    set("sim.run_ns_per_inst", median(nsInst));
    set("sim.run_ns_per_cycle", median(nsCycle));
    set("sim.cosim_ns_per_inst", median(cosimNs));
    set("sim.trace_ring_ns_per_inst", median(ringNs));

    // Functional layer: step, runFast, and the fast-forward engine.
    const Program &prog = in.progs[d.probeProgs[0]];
    const MachineConfig &cfg = d.machines[d.probeMachines[0]];
    std::uint64_t length = 0;
    double runfastSpi = 0;
    {
        Scoped s("func.runfast", root, ++job);
        Interp interp(prog);
        runfastSpi = perUnit(slice, [&] {
            interp.reset(prog);
            length = interp.runFast(~std::uint64_t{0});
            return double(length);
        });
        set("func.runfast_mips", 1e-6 / runfastSpi);
        s.count = double(length);
    }
    {
        Scoped s("func.step", root, ++job);
        Interp interp(prog);
        const std::uint64_t chunk = std::min<std::uint64_t>(length, 50'000);
        const double spi = perUnit(slice, [&] {
            interp.reset(prog);
            std::uint64_t k = 0;
            for (; k < chunk && !interp.halted(); ++k)
                interp.step();
            return double(k);
        });
        set("func.step_ns_per_inst", spi * 1e9);
    }
    {
        Scoped s("sim.fastfwd", root, ++job);
        FastForward ff(cfg, prog);
        const double ffSpi = perUnit(slice, [&] {
            ff.reset(prog);
            return double(ff.run(~std::uint64_t{0}));
        });
        set("sim.fastfwd_mips", 1e-6 / ffSpi);
        set("sim.fastfwd_warm_ratio", runfastSpi / ffSpi);
    }

    // Checkpoints: capture cost and size, the whole collect pass, and
    // the detailed windows that resume from them.
    // Short programs get a shorter period (windows may then overlap,
    // which the probe does not mind) so the tail has enough samples.
    SamplingOptions reg = campaignRegimen();
    const std::uint64_t windowsWanted = 30;
    const std::uint64_t room =
        length > reg.skipInsts + reg.warmupInsts + reg.measureInsts
            ? length - reg.skipInsts - reg.warmupInsts - reg.measureInsts
            : 0;
    reg.periodInsts = std::clamp<std::uint64_t>(room / windowsWanted, 1000,
                                                reg.periodInsts);
    reg.maxWindows = windowsWanted;
    {
        FastForward ff(cfg, prog);
        std::vector<double> ms, bytes;
        ff.run(reg.skipInsts);
        while (!ff.halted() && ms.size() < windowsWanted) {
            ArchCheckpoint ck;
            Scoped s("sim.checkpoint_capture", root, ++job);
            const double t = now();
            ff.capture(ck);
            ms.push_back((now() - t) * 1e3);
            bytes.push_back(double(ck.serialize().size()));
            s.count = bytes.back();
            ff.run(reg.periodInsts);
        }
        set("sim.checkpoint_capture_ms", median(ms));
        set("sim.checkpoint_bytes", median(bytes));
    }
    std::vector<std::shared_ptr<const ArchCheckpoint>> points;
    {
        std::vector<double> secs;
        for (int rep = 0; rep < 3; ++rep) {
            Scoped s("sim.sampling_collect", root, ++job);
            const double t = now();
            points = collectCheckpoints(cfg, prog, reg);
            secs.push_back(now() - t);
            s.count = double(points.size());
        }
        set("sim.sampling_collect_s", median(secs));
    }
    {
        Json win = Json::array();
        Simulator &sim = *in.sims[d.probeMachines[0]];
        for (const auto &pt : points) {
            SimOptions o;
            o.warmupInsts = reg.warmupInsts;
            o.maxInsts = reg.measureInsts;
            o.startFrom = pt;
            Scoped s("sim.sampling_window", root, ++job);
            const SimResult r = sim.run(prog, o);
            s.count = double(r.counter("core.retired"));
            win.push(Json(r.hostSeconds * 1e3));
        }
        out["sim.sampling_window_ms"] = std::move(win);
    }

    // The RB adder on chained redundant operands.
    {
        Scoped s("rb.add", root, ++job);
        Rng rng(Rng::mixSeed(seed, 77));
        std::vector<RbNum> xs(1024);
        for (RbNum &x : xs)
            x = RbNum::fromTc(rng.next());
        RbNum acc = RbNum::fromTc(rng.next());
        const double spo = perUnit(slice, [&] {
            for (const RbNum &x : xs)
                acc = rbAdd(acc, x).sum;
            s.count += double(xs.size());
            return double(xs.size());
        });
        set("rb.add_mops", 1e-6 / spo);
        volatile Word sink = acc.toTc(); // keeps the sums live
        (void)sink;
    }

    // Protocol: parse this workload's requests, format a real result.
    {
        std::vector<std::string> lines = request_lines;
        if (lines.empty()) {
            for (std::size_t p = 0; p < d.progs.size(); ++p)
                for (const MachineConfig &m : d.machines) {
                    char buf[256];
                    std::snprintf(buf, sizeof(buf),
                                  "{\"id\":\"c%zu-%s\",\"workload\":\"%s\","
                                  "\"machine\":\"%s\",\"width\":%u,"
                                  "\"scale\":%u}",
                                  p, m.label.c_str(),
                                  d.progs[p].name.c_str(), m.label.c_str(),
                                  m.width, d.progs[p].scale);
                    lines.push_back(buf);
                }
        }
        // Every line is valid; a RequestError here fails the run.
        Scoped s("protocol.parse", root, ++job);
        const double spp = perUnit(slice, [&] {
            for (const std::string &l : lines)
                serve::parseRequest(l);
            return double(lines.size());
        });
        set("protocol.parse_us", spp * 1e6);
    }
    {
        Scoped s("protocol.format", root, ++job);
        const double spf = perUnit(slice, [&] {
            s.count += double(
                serve::formatResult("probe", sample, false, {}).size());
            return 1.0;
        });
        set("protocol.format_us", spf * 1e6);
    }
    spanLog.close(root);
}

// ------------------------------------------------------------- main

struct Args
{
    std::string mode;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        throw std::invalid_argument("missing workload");
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(k + " needs a value");
        const std::string v = argv[++i];
        if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else
            throw std::invalid_argument("unknown flag " + k);
    }
    return a;
}

Json
describe()
{
    Json j = Json::object();
    j["build_type"] = Json(RBBENCH_BUILD_TYPE);
    j["compiler"] = Json(RBBENCH_COMPILER);
    j["simd_backend"] = Json(simd::backendName());
    j["dispatch"] = Json(dispatchName());
    j["server_trace_ring"] = Json(serve::Server::Options{}.traceLast);
    return j;
}

int
runWorkload(const Args &a)
{
    const WorkloadDef d = defineWorkload(a.mode);
    const bool serveLayers = a.mode == "serve-layers";
    std::vector<std::string> requestLines;
    if (serveLayers) {
        std::string line;
        while (std::getline(std::cin, line))
            if (!line.empty())
                requestLines.push_back(line);
    }

    // Set-up, 25 times; the last with the real seed.
    constexpr std::uint64_t setupReps = 25;
    Json setups = Json::array();
    Inputs in;
    for (std::uint64_t rep = 0; rep < setupReps; ++rep) {
        const bool last = rep + 1 == setupReps;
        spanLog.on = a.trace && last;
        // Served programs are built with the default seed, as the server
        // builds them; the earlier set-ups still use derived seeds so
        // the predecode cache is cold for the last one. The previous
        // inputs go first, so each set-up gets the memory they held
        // rather than whatever pages the system hands out.
        in = Inputs();
        in = setUp(d, last ? a.seed : Rng::mixSeed(a.seed, 1000 + rep),
                   serveLayers && last);
        Json s = Json::object();
        s["total_s"] = Json(in.total);
        s["workloads.build_ms"] = Json(in.buildMs);
        s["func.decode_ms"] = Json(in.decodeMs);
        s["sim.construct_ms"] = Json(in.constructMs);
        s["service.start_ms"] = Json(in.serviceMs);
        setups.push(std::move(s));
    }
    spanLog.on = false;

    Json out = Json::object();
    out["workload"] = Json(a.mode);
    out["seed"] = Json(a.seed);
    out["describe"] = describe();
    out["setups"] = std::move(setups);
    Checks checks;

    if (!serveLayers) {
        const double budget = a.trace ? 0.6 * a.seconds : a.seconds;
        const double t0 = now();
        Json passes = Json::array();
        StatSnapshot first;
        bool haveFirst = false;
        for (std::uint64_t n = 0;; ++n) {
            spanLog.on = a.trace && n % 2 == 1;
            Pass p = d.sampled ? campaignPass(d, in, n, checks)
                               : gridPass(d, in, n, checks);
            spanLog.on = false;
            finalizeMergedStats(p.merged);
            if (!haveFirst) {
                first = p.merged;
                haveFirst = true;
                out["stats"] = statsDigestInput(first);
            } else if (!(p.merged == first)) {
                checks.fail("pass " + std::to_string(n) +
                            ": merged statistics differ from pass 0");
            }
            passes.push(passToJson(p));
            const double used = now() - t0;
            const double perPass = used / double(n + 1);
            const std::uint64_t minPasses = a.trace ? 2 : 1;
            if (n + 1 >= minPasses && used + perPass > budget)
                break;
        }
        out["passes"] = std::move(passes);
    }

    if (a.trace || serveLayers) {
        spanLog.on = a.trace;
        Json probes = Json::object();
        runProbes(d, in, a.seed, serveLayers ? a.seconds : 0.4 * a.seconds,
                  requestLines, probes);
        out["probes"] = std::move(probes);
        spanLog.on = false;
    }

    out["peak_rss_mb"] = Json(peakRssMb());
    out["attempted"] = Json(checks.attempted);
    out["failed"] = Json(checks.failed);
    Json errs = Json::array();
    for (const std::string &e : checks.errors)
        errs.push(Json(e));
    out["errors"] = std::move(errs);
    out["spans"] = spanLog.toJson();
    std::cout << out.dump() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        if (a.mode == "describe") {
            std::cout << describe().dump() << "\n";
            return 0;
        }
        return runWorkload(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rbbench-harness: %s\n", e.what());
        return 2;
    }
}
