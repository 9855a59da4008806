/**
 * @file
 * The repository benchmark binary. perfbench/run.py builds it, pins the
 * environment, runs it and assembles the final result line; the binary
 * can also be run by hand:
 *
 *   perfbench pins     [--workload W]         the pinned DLP_* environment
 *   perfbench run      --workload W --seed N --seconds S
 *   perfbench trace    --workload W --seed N --trace-out FILE
 *   perfbench accuracy --seed N
 *
 * `run` is the timed run (tracing off): it repeats the workload, each
 * repetition from an empty result cache, at least four times and then
 * until the next repetition would pass the time budget, and reports the
 * fastest repetition (see runTimed). `trace` is the separate traced run
 * behind the per-layer metrics (traced.cpp). `accuracy` runs the
 * paper-scale grid on one dataset seed and scores it against the
 * paper's Table 4 and Figure 5 on every core. Each mode first times the
 * process set-up, and prints its result as the last line of stdout.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <thread>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "arch/configs.hh"
#include "bench.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "kernels/catalog.hh"
#include "ref/blowfish.hh"
#include "verify/cost_invariants.hh"

using namespace dlp;

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the shape of
// each is here. sweep-short-checked sweeps two dataset seeds per
// repetition, so a run holds many short repetitions.
const Workload workloads[] = {
    {"grid-full-serial", 1, 1, false},
    {"sweep-short-checked", 8, 2, true},
};

/** Repetitions every timed run makes, however long they take. */
constexpr size_t minRepetitions = 4;

/**
 * Seconds each loop of HostProbe takes on a quiet host: round figures
 * near the fastest rounds seen on the machine the benchmark was written
 * on (42, 32 and 19 ms). They fix the scale of the host times only.
 */
constexpr double quietProbeSeconds[HostProbe::loops] = {0.040, 0.030,
                                                        0.020};

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

driver::SweepPlan
planFor(const Workload &w, uint64_t seed)
{
    driver::SweepPlan plan;
    for (unsigned s = 0; s < w.seedsPerRep; ++s)
        plan.addGrid(analysis::perfKernels(), arch::allConfigNames(),
                     w.scaleDiv, seed + s);
    return plan;
}

std::string
cellId(const driver::SweepTask &t)
{
    return t.kernel + "/" + t.config + "/" + std::to_string(t.seed);
}

bool
Gate::check(const arch::ExperimentResult &res, bool audited)
{
    ++attempted;
    std::string why;
    if (!res.verified)
        why = "not verified: " + res.error;
    else if (verify::costBoundTicks(res) > cyclesToTicks(res.cycles))
        why = "cost bound " + std::to_string(verify::costBoundTicks(res)) +
              " ticks exceeds " + std::to_string(res.cycles) + " cycles";
    else if (audited && !res.audited)
        why = "audit did not run";
    else if (!res.auditViolations.empty())
        why = "audit: " + res.auditViolations.front().invariant + ": " +
              res.auditViolations.front().detail;
    if (why.empty())
        return true;
    ++failed;
    std::cerr << "FAILED " << res.kernel << "/" << res.config << ": " << why
              << "\n";
    return false;
}

std::string
cellDigest(const arch::ExperimentResult &res)
{
    json::Value full = analysis::toJson(res);
    json::Value simulated = json::Value::object();
    for (const auto &[key, value] : full.members())
        if (key != "host")
            simulated.set(key, value);
    return fnv1a128(json::write(simulated, 0)).hex();
}

std::string
combinedDigest(const std::vector<std::string> &cells)
{
    Fnv1a128 h;
    for (const auto &c : cells)
        h.addString(c);
    return h.digest().hex();
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
HostProbe::sample()
{
    // Registers only; random updates over the whole 32 MiB table;
    // random updates over its first 2 MiB (a core's L2 on the machine
    // the benchmark was written on).
    static const uint32_t masks[loops] = {0, (1u << 23) - 1, (1u << 19) - 1};
    static const uint32_t steps[loops] = {20000000, 3000000, 6000000};
    uint64_t x = 88172645463325252ULL, sum = 0;
    for (unsigned k = 0; k < loops; ++k) {
        double t0 = wallNow();
        for (uint32_t i = 0; i < steps[k]; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum += masks[k] ? table[x & masks[k]]++ : x;
        }
        times[k].push_back(wallNow() - t0);
    }
    table[0] = uint32_t(sum); // keep the loops from being optimised away
}

double
HostProbe::slowdown() const
{
    double logSum = 0;
    for (unsigned k = 0; k < loops; ++k)
        logSum += std::log(median(times[k]) / quietProbeSeconds[k]);
    return std::exp(logSum / loops);
}

double
minOf(const std::vector<double> &v)
{
    panic_if(v.empty(), "minimum of an empty sample");
    return *std::min_element(v.begin(), v.end());
}

double
median(std::vector<double> v)
{
    panic_if(v.empty(), "median of an empty sample");
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
emit(const json::Value &doc)
{
    std::cout << json::write(doc, 0) << std::endl;
}

std::pair<double, double>
timeSetup()
{
    static const uint8_t key[] = {'p', 'e', 'r', 'f', 'b', 'e', 'n', 'c'};
    double t0 = wallNow();
    ref::Blowfish bf(key, sizeof key);
    double t1 = wallNow();
    size_t kernels = kernels::allKernels().size();
    double t2 = wallNow();
    panic_if(kernels == 0 || bf.pArray()[0] == 0, "empty set-up");
    return {t1 - t0, t2 - t1};
}

void
printFingerprint()
{
    std::cout << "machine: nproc " << std::thread::hardware_concurrency()
              << ", compiler " << __VERSION__ << ", build "
              << PERFBENCH_BUILD_TYPE << "\n";
}

bool
nothingCached()
{
    json::Value st = driver::storeStatsJson();
    bool clean = st.at("cacheHits").asUInt64() == 0 &&
                 st.at("storeHits").asUInt64() == 0;
    if (!clean)
        std::cerr << "perfbench: cached cells were served: "
                  << json::write(st, 0) << "\n";
    return clean;
}

Rep
timedRep(const Workload &w, const driver::SweepPlan &plan, uint64_t seed,
         unsigned jobs)
{
    driver::clearResultCache();
    Rep rep;
    size_t exported = 0;
    double w0 = wallNow(), c0 = cpuNow();
    if (w.seedsPerRep == 1) {
        analysis::Grid grid = analysis::runGrid(w.scaleDiv, seed, jobs);
        exported = analysis::toJson(grid).size();
        rep.wall = wallNow() - w0;
        rep.cpu = cpuNow() - c0;
        for (const auto &t : plan.tasks)
            rep.results.push_back(std::move(grid.at(t.kernel).at(t.config)));
    } else {
        driver::SweepOptions opts;
        opts.jobs = jobs;
        rep.results = driver::runSweep(plan, opts);
        exported = analysis::toJson(rep.results).size();
        rep.wall = wallNow() - w0;
        rep.cpu = cpuNow() - c0;
    }
    panic_if(exported == 0, "empty export");
    return rep;
}

json::Value
metric(double value, const char *unit)
{
    json::Value m = json::Value::object();
    m.set("value", value);
    m.set("unit", unit);
    return m;
}

namespace {

/** The paper's Table 4: baseline useful ops/cycle (bench_table4.cpp). */
const std::map<std::string, double> paperTable4 = {
    {"convert", 14.1},          {"dct", 10.4},
    {"highpassfilter", 7.4},    {"fft", 3.7},
    {"lu", 0.7},                {"md5", 2.8},
    {"blowfish", 5.1},          {"rijndael", 7.5},
    {"vertex-simple", 3.6},     {"fragment-simple", 2.6},
    {"vertex-reflection", 5.2}, {"fragment-reflection", 4.0},
    {"vertex-skinning", 5.6},
};

/** The paper's Figure 5 groups: each kernel's preferred configuration. */
const std::map<std::string, std::string> paperFigure5 = {
    {"fft", "S"},
    {"lu", "S"},
    {"convert", "S-O"},
    {"dct", "S-O"},
    {"highpassfilter", "S-O"},
    {"vertex-reflection", "S-O"},
    {"fragment-reflection", "S-O"},
    {"fragment-simple", "S-O"},
    {"vertex-simple", "S-O"},
    {"md5", "M-D"},
    {"blowfish", "M-D"},
    {"rijndael", "M-D"},
    {"vertex-skinning", "M-D"},
};

/** The DLP_* environment a run needs; the binary refuses any other. */
json::Value
pinsFor(bool checked, unsigned jobs)
{
    json::Value pins = json::Value::object();
    pins.set("DLP_JOBS", std::to_string(jobs));
    pins.set("DLP_STORE", "");
    pins.set("DLP_FASTFORWARD", "1");
    pins.set("DLP_AUDIT", checked ? "1" : "0");
    pins.set("DLP_CHECK", checked ? "1" : "0");
    pins.set("DLP_TIMELINE", "");
    pins.set("DLP_TIMESERIES", "0");
    pins.set("DLP_TRACE", "");
    return pins;
}

bool
envMatches(const json::Value &pins)
{
    bool ok = true;
    for (const auto &[var, want] : pins.members()) {
        const char *got = std::getenv(var.c_str());
        if ((got ? got : "") != want.asString()) {
            std::cerr << "perfbench: " << var << "='" << (got ? got : "")
                      << "' but this run needs '" << want.asString()
                      << "'\n";
            ok = false;
        }
    }
    return ok;
}

/**
 * Linear-interpolated percentile (numpy's default) of a sorted sample.
 */
double
percentile(const std::vector<double> &sorted, double p)
{
    double pos = p / 100.0 * double(sorted.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

/** The highest percentile with at least ten samples beyond it. */
double
tailPercentile(size_t n)
{
    double best = 50;
    for (double p : {75.0, 80.0, 85.0, 90.0, 95.0, 99.0, 99.9})
        if (double(n) * (1.0 - p / 100.0) >= 10.0)
            best = p;
    return best;
}

/** The CPUs this process may run on, as `nproc` counts them. */
std::vector<int>
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    if (cpus.empty())
        cpus.push_back(-1); // unknown: leave placement to the kernel
    return cpus;
}

/**
 * Run the calling thread, and threads it starts, on one CPU only. If the
 * host refuses, placement stays with the kernel.
 */
void
pinTo(int cpu)
{
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * The timed run. Other tenants of a shared host only ever slow a
 * repetition down, by different amounts on different CPUs and in bursts
 * of seconds to minutes. So repetition i runs pinned to the i-th usable
 * CPU in turn, and each host-time metric is taken from the fastest
 * repetitions: wall_s, cpu_s and sim_insts_per_s from the least of each
 * over repetitions, and the cell percentiles over each cell's least host
 * seconds. Every repetition is still checked and must agree with the
 * first in simulated output.
 */
int
runTimed(const Workload &w, uint64_t seed, double seconds, unsigned jobs)
{
    auto [bfInit, catalog] = timeSetup();
    printFingerprint();
    driver::SweepPlan plan = planFor(w, seed);
    Gate gate;
    bool consistent = true;
    std::vector<double> walls, cpus;
    uint64_t insts = 0;
    std::vector<std::vector<double>> cellSeconds(plan.size());
    std::vector<std::string> firstDigests;
    const std::vector<int> cores = usableCpus();
    HostProbe probe;

    double start = wallNow();
    do {
        pinTo(cores[walls.size() % cores.size()]);
        probe.sample();
        Rep rep = timedRep(w, plan, seed, jobs);
        consistent = nothingCached() && consistent;
        walls.push_back(rep.wall);
        cpus.push_back(rep.cpu);
        insts = 0;
        std::vector<std::string> digests;
        for (size_t i = 0; i < rep.results.size(); ++i) {
            const auto &res = rep.results[i];
            gate.check(res, w.checked);
            insts += res.instsExecuted;
            cellSeconds[i].push_back(res.hostSeconds);
            digests.push_back(cellDigest(res));
        }
        std::cout << "repetition " << walls.size() << ": wall " << rep.wall
                  << " s, cpu " << rep.cpu << " s, " << insts
                  << " simulated insts\n";
        if (firstDigests.empty()) {
            firstDigests = digests;
        } else if (digests != firstDigests) {
            std::cerr << "perfbench: repetition " << walls.size()
                      << " differs from the first in simulated output\n";
            consistent = false;
        }
    } while (walls.size() < minRepetitions ||
             wallNow() - start + median(walls) <= seconds);
    probe.sample();
    const double slowdown = probe.slowdown();
    // The probe's table is resident from before the first repetition.
    double peakRss = peakRssMb() - probe.tableMb();

    std::vector<double> perCell;
    for (const auto &s : cellSeconds)
        perCell.push_back(minOf(s));
    std::sort(perCell.begin(), perCell.end());
    double tailP = tailPercentile(perCell.size());
    std::string digest = combinedDigest(firstDigests);

    std::cout << "workload " << w.name << " seed " << seed << ": "
              << walls.size() << " repetition(s) of " << plan.size()
              << " cells on " << jobs << " worker(s)\n"
              << "simulated digest " << digest << "\n"
              << "cell_p50_s is p50 and cell_tail_s is p" << tailP
              << " of " << perCell.size()
              << " per-cell minima of host seconds\n"
              << "host slowdown " << slowdown << " (probe loops "
              << median(probe.times[0]) << ", " << median(probe.times[1])
              << ", " << median(probe.times[2]) << " s; least wall "
              << minOf(walls) << " s before scaling)\n";

    json::Value metrics = json::Value::object();
    const double wall = minOf(walls) / slowdown;
    metrics.set("wall_s", metric(wall, "s"));
    metrics.set("cpu_s", metric(minOf(cpus) / slowdown, "s"));
    metrics.set("sim_insts_per_s", metric(double(insts) / wall, "insts/s"));
    metrics.set("cell_p50_s",
                metric(percentile(perCell, 50) / slowdown, "s"));
    metrics.set("cell_tail_s",
                metric(percentile(perCell, tailP) / slowdown, "s"));
    metrics.set("peak_rss_mb", metric(peakRss, "MB"));

    json::Value doc = json::Value::object();
    doc.set("correct", consistent && gate.failed == 0);
    doc.set("attempted", gate.attempted);
    doc.set("failed", gate.failed);
    doc.set("setup_s", (bfInit + catalog) / slowdown);
    doc.set("metrics", std::move(metrics));
    emit(doc);
    return doc.at("correct").asBool() ? 0 : 1;
}

int
runAccuracy(uint64_t seed, unsigned jobs)
{
    auto [bfInit, catalog] = timeSetup();
    HostProbe probe;
    for (int i = 0; i < 3; ++i)
        probe.sample();
    driver::clearResultCache();
    analysis::Grid grid = analysis::runGrid(1, seed, jobs);
    bool consistent = nothingCached();

    Gate gate;
    double lnErr = 0;
    uint64_t mismatches = 0;
    std::vector<std::string> digests;
    for (const auto &kernel : analysis::perfKernels()) {
        const auto &byConfig = grid.at(kernel);
        Cycles fewest = byConfig.at("baseline").cycles;
        for (const auto &config : arch::allConfigNames()) {
            const auto &res = byConfig.at(config);
            gate.check(res, false);
            digests.push_back(cellDigest(res));
            fewest = std::min(fewest, res.cycles);
        }
        double ours = byConfig.at("baseline").opsPerCycle();
        lnErr += std::fabs(std::log(ours / paperTable4.at(kernel)));
        const std::string &preferred = paperFigure5.at(kernel);
        if (byConfig.at(preferred).cycles > fewest) {
            ++mismatches;
            std::cout << "figure 5 (seed " << seed << "): " << kernel
                      << " prefers " << analysis::bestConfig(grid, kernel)
                      << ", paper " << preferred << "\n";
        }
    }

    std::cout << "simulated digest (paper scale, seed " << seed
              << "): " << combinedDigest(digests) << "\n";

    json::Value doc = json::Value::object();
    doc.set("correct", consistent && gate.failed == 0);
    doc.set("attempted", gate.attempted);
    doc.set("failed", gate.failed);
    doc.set("setup_s", (bfInit + catalog) / probe.slowdown());
    doc.set("table4_err", lnErr / double(analysis::perfKernels().size()));
    doc.set("fig5_mismatch", mismatches);
    emit(doc);
    return doc.at("correct").asBool() ? 0 : 1;
}

int
usage()
{
    std::cerr
        << "usage: perfbench pins [--workload W]\n"
           "       perfbench run --workload W --seed N --seconds S\n"
           "       perfbench trace --workload W --seed N --trace-out FILE\n"
           "       perfbench accuracy --seed N\n"
           "workloads: grid-full-serial, sweep-short-checked\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - 2) % 2 != 0)
        return usage();
    auto num = [&](const char *key, uint64_t &out) {
        auto it = args.find(key);
        if (it == args.end() || it->second.empty())
            return false;
        char *end = nullptr;
        out = std::strtoull(it->second.c_str(), &end, 10);
        return *end == '\0';
    };

    setQuietLogging(true);
    uint64_t seed = 0, seconds = 0;
    // Accuracy runs, and their pins, take no workload and use every core.
    const Workload *w = nullptr;
    if (args.count("workload") && !(w = findWorkload(args["workload"])))
        return usage();
    if ((mode == "run" || mode == "trace") && !w)
        return usage();
    bool checked = w && w->checked;
    unsigned jobs = w ? 1 : unsigned(usableCpus().size());
    json::Value pins = pinsFor(checked, jobs);
    if (mode == "pins") {
        emit(pins);
        return 0;
    }
    if (!num("seed", seed) || !envMatches(pins))
        return usage();

    try {
        if (mode == "run" && num("seconds", seconds) && seconds > 0)
            return runTimed(*w, seed, double(seconds), jobs);
        if (mode == "trace" && !args["trace-out"].empty())
            return runTraced(*w, seed, jobs, args["trace-out"]);
        if (mode == "accuracy")
            return runAccuracy(seed, jobs);
    } catch (const FatalError &e) {
        // A cell that fails golden-model verification inside the sweep
        // driver raises; report it as a failed run.
        std::cerr << "perfbench: " << e.what() << "\n";
        json::Value doc = json::Value::object();
        doc.set("correct", false);
        doc.set("attempted", uint64_t(1));
        doc.set("failed", uint64_t(1));
        emit(doc);
        return 1;
    }
    return usage();
}
