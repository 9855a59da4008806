/**
 * @file
 * Shared pieces of the repository benchmark: the workload table, the
 * per-cell correctness gate, the simulated-output digest and host
 * clocks.
 *
 * Every number the benchmark prints is either *host* time or work (what
 * the simulator costs to run) or *simulated* (what the modelled TRIPS
 * grid would do). Modelled caches start empty in every cell: each
 * experiment builds a fresh MemorySystem, and the benchmark does not
 * warm them.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/processor.hh"
#include "common/json.hh"
#include "driver/sweep.hh"

namespace perfbench {

/** One named benchmark workload. */
struct Workload
{
    const char *name;
    uint64_t scaleDiv;     ///< kernel scale divisor (1 = paper scale)
    unsigned seedsPerRep;  ///< dataset seeds one repetition sweeps
    bool checked;          ///< static check and audit on
};

/** The workload with this name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/**
 * The cells of one repetition, in plan order: every perf kernel on
 * every configuration for each of the workload's dataset seeds
 * seed, seed + 1, ...
 */
dlp::driver::SweepPlan planFor(const Workload &w, uint64_t seed);

/** Cell id shared by the spans of one cell: "kernel/config/seed". */
std::string cellId(const dlp::driver::SweepTask &t);

/**
 * Per-cell correctness gate. A cell passes when it verified against its
 * golden model, the cost oracle's sound lower bound does not exceed its
 * simulated ticks, and (where audit ran) it has no audit violation.
 * Failures are reported on stderr.
 */
struct Gate
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Check one cell; `audited` says whether audit must have run. */
    bool check(const dlp::arch::ExperimentResult &res, bool audited);
};

/**
 * Digest of every simulated field of one result: its JSON export with
 * the "host" object (host time and host work counters) removed.
 */
std::string cellDigest(const dlp::arch::ExperimentResult &res);

/** Digest over the cell digests of a whole repetition, in plan order. */
std::string combinedDigest(const std::vector<std::string> &cells);

/** Host clocks. */
double wallNow();
double cpuNow(); ///< process user + system CPU seconds
double peakRssMb();

/**
 * How much slower than a quiet host the host runs now. Other tenants of
 * a shared host slow the simulator by up to about 1.9x for minutes at a
 * time, through its memory accesses more than its arithmetic. The probe
 * times three fixed loops that are the benchmark's own code, so a change
 * to the simulator does not change them: one in registers, one of
 * random updates over a 32 MiB table and one over 2 MiB of it.
 * slowdown() is the geometric mean over the loops of the median round
 * time over the loop's quiet-host time; host times divided by it are
 * scaled to a quiet host.
 */
struct HostProbe
{
    static constexpr unsigned loops = 3;
    std::vector<double> times[loops];
    /** Zero-filled, so resident from construction to destruction. */
    std::vector<uint32_t> table = std::vector<uint32_t>(1u << 23);

    /** Time one round of the loops on the calling thread's CPU. */
    void sample();
    double slowdown() const;
    double tableMb() const
    {
        return double(table.size() * sizeof(uint32_t)) / (1024.0 * 1024.0);
    }
};

/** Print the host's core count, the compiler and the build type. */
void printFingerprint();

/** Median, and least value, of a non-empty sample. */
double median(std::vector<double> v);
double minOf(const std::vector<double> &v);

/** Print the benchmark's result object as one JSON line on stdout. */
void emit(const dlp::json::Value &doc);

/**
 * Time the one-time process set-up that every user pays: the first
 * ref::Blowfish construction (pi-derived boxes) and building every kernel
 * IR in the catalog. Call once per process, before anything else.
 * @return {blowfish seconds, catalog seconds}
 */
std::pair<double, double> timeSetup();

/**
 * True when neither the in-process result cache nor a persistent store
 * served a cell since the last driver::clearResultCache().
 */
bool nothingCached();

/** Results of one repetition in plan order, plus its host cost. */
struct Rep
{
    std::vector<dlp::arch::ExperimentResult> results;
    double wall = 0; ///< host seconds
    double cpu = 0;  ///< host process CPU seconds
};

/**
 * One untraced repetition from an empty result cache: the grid
 * (analysis::runGrid) or the seed sweep (driver::runSweep), plus the
 * JSON export of its results. Only that much is timed.
 */
Rep timedRep(const Workload &w, const dlp::driver::SweepPlan &plan,
             uint64_t seed, unsigned jobs);

/** A metric object: { "value", "unit" }. */
dlp::json::Value metric(double value, const char *unit);

/**
 * The traced run behind the per-layer metrics (traced.cpp); writes its
 * spans to `traceOut` and returns the process exit code.
 */
int runTraced(const Workload &w, uint64_t seed, unsigned jobs,
              const std::string &traceOut);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
