/**
 * @file
 * The traced run behind the per-layer metrics.
 *
 * It first repeats the workload once untraced (the same call path as the
 * timed run), then walks the same cells one by one through the layers'
 * public entry points with a span around each call:
 *
 *   bench.walk
 *     kernels.fixture                   kernels::makeFixture
 *     bench.cell        id kernel/config/seed
 *       kernels.instantiate             WorkloadFixture::instantiate
 *       sched.lower                     arch::makeStreamLayout + lowering
 *       cost.analyze                    cost::analyzeSimd / analyzeMimd
 *       check.verify                    check::verify
 *       arch.run                        arch::TripsProcessor::run
 *       verify.audit                    verify::auditAndRecord, costBoundTicks
 *     analysis.export                   analysis::toJson
 *
 * Lowering, cost analysis and the static check are pure, so they are
 * timed by calling them again on the inputs TripsProcessor::run gives
 * them; the processor still runs its own copy inside arch.run. The
 * static check and the audit are timed on every workload, but run inside
 * the timed repetitions only on sweep-short-checked.
 *
 * Counts come from the results and their statGroups, summed over cells;
 * they repeat exactly. Splitting arch.run further (event queue,
 * calendars, mesh, caches) needs counters inside the simulator.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <type_traits>

#include "analysis/experiments.hh"
#include "analysis/export.hh"
#include "arch/configs.hh"
#include "bench.hh"
#include "check/verify.hh"
#include "common/logging.hh"
#include "cost/cost.hh"
#include "kernels/workload.hh"
#include "sched/linearize.hh"
#include "sched/simd_lowering.hh"
#include "spans.hh"
#include "verify/audit.hh"
#include "verify/cost_invariants.hh"

using namespace dlp;

namespace perfbench {

namespace {

/** Lower, analyse and check one cell's plan; returns check findings. */
template <typename Plan>
size_t
staticPasses(SpanRecorder &rec, const std::string &id, const Plan &plan,
             const core::MachineParams &m, const kernels::Workload &wl)
{
    {
        SpanRecorder::Scope s(rec, "cost.analyze", id);
        cost::CostReport report;
        if constexpr (std::is_same_v<Plan, sched::SimdPlan>)
            report = cost::analyzeSimd(plan, m, wl.totalRecords(),
                                       wl.numBatches());
        else
            report = cost::analyzeMimd(plan, m, wl.totalRecords(),
                                       wl.numBatches());
        panic_if(!report.analyzed, "cost analysis failed on %s",
                 id.c_str());
    }
    SpanRecorder::Scope s(rec, "check.verify", id);
    check::MappedProgram prog;
    if constexpr (std::is_same_v<Plan, sched::SimdPlan>)
        prog.simd = &plan;
    else
        prog.mimd = &plan;
    prog.kernel = &wl.kernel();
    return check::verify(prog, m).diags.size();
}

/** Sum of one scalar of one stat group over every result. */
double
statSum(const std::vector<arch::ExperimentResult> &results,
        const std::string &group, const std::string &scalar)
{
    double total = 0;
    for (const auto &res : results)
        for (const auto &g : res.statGroups)
            if (g.name == group) {
                auto it = g.scalars.find(scalar);
                if (it != g.scalars.end())
                    total += it->second;
            }
    return total;
}

double
vectorSum(const std::vector<arch::ExperimentResult> &results,
          const std::string &group, const std::string &vector)
{
    double total = 0;
    for (const auto &res : results)
        for (const auto &g : res.statGroups)
            if (g.name == group) {
                auto it = g.vectors.find(vector);
                if (it != g.vectors.end())
                    total += it->second.total();
            }
    return total;
}

std::vector<std::string>
digestsOf(const std::vector<arch::ExperimentResult> &results)
{
    std::vector<std::string> d;
    for (const auto &res : results)
        d.push_back(cellDigest(res));
    return d;
}

} // namespace

int
runTraced(const Workload &w, uint64_t seed, unsigned jobs,
          const std::string &traceOut)
{
    auto [bfInit, catalog] = timeSetup();
    printFingerprint();
    driver::SweepPlan plan = planFor(w, seed);
    Gate gate;
    bool consistent = true;

    // Untraced reference: the timed run's call path, once.
    Rep untraced = timedRep(w, plan, seed, jobs);
    consistent = nothingCached() && consistent;
    for (const auto &res : untraced.results)
        gate.check(res, w.checked);
    std::vector<std::string> digests = digestsOf(untraced.results);

    SpanRecorder rec;
    std::vector<arch::ExperimentResult> traced(plan.size());
    uint64_t checkFindings = 0, boundViolations = 0;
    int root = rec.open("bench.walk");
    for (size_t first = 0; first < plan.size();) {
        const driver::SweepTask &head = plan.tasks[first];
        std::shared_ptr<const kernels::WorkloadFixture> fixture;
        {
            SpanRecorder::Scope s(rec, "kernels.fixture",
                                  head.kernel + "/" +
                                      std::to_string(head.seed));
            fixture = kernels::makeFixture(
                head.kernel, driver::resolvedScale(head), head.seed);
        }
        size_t i = first;
        for (; i < plan.size() && plan.tasks[i].kernel == head.kernel &&
               plan.tasks[i].seed == head.seed;
             ++i) {
            const driver::SweepTask &task = plan.tasks[i];
            const std::string id = cellId(task);
            SpanRecorder::Scope cell(rec, "bench.cell", id);
            std::unique_ptr<kernels::Workload> wl;
            {
                SpanRecorder::Scope s(rec, "kernels.instantiate", id);
                wl = fixture->instantiate();
            }
            core::MachineParams m = arch::configByName(task.config);
            const kernels::Kernel &k = wl->kernel();
            if (m.mech.localPC) {
                sched::MimdPlan p;
                {
                    SpanRecorder::Scope s(rec, "sched.lower", id);
                    uint64_t chunk = 0;
                    p = sched::lowerMimd(
                        k, m, arch::makeStreamLayout(k, m, chunk));
                }
                checkFindings += staticPasses(rec, id, p, m, *wl);
            } else {
                sched::SimdPlan p;
                {
                    SpanRecorder::Scope s(rec, "sched.lower", id);
                    uint64_t chunk = 0;
                    p = sched::lowerSimd(
                        k, m, arch::makeStreamLayout(k, m, chunk));
                }
                checkFindings += staticPasses(rec, id, p, m, *wl);
            }
            arch::ExperimentResult &res = traced[i];
            {
                SpanRecorder::Scope s(rec, "arch.run", id);
                arch::TripsProcessor cpu(m);
                res = cpu.run(*wl);
            }
            // Where the audit is off in the timed run, its findings are
            // not recorded in the result, so the simulated digest still
            // matches; they fail the cell all the same.
            size_t unrecorded = 0;
            {
                SpanRecorder::Scope s(rec, "verify.audit", id);
                if (w.checked)
                    verify::auditAndRecord(res);
                else
                    unrecorded = verify::auditResult(res).size();
                boundViolations +=
                    verify::costBoundTicks(res) > cyclesToTicks(res.cycles);
            }
            if (gate.check(res, w.checked) && unrecorded) {
                ++gate.failed;
                std::cerr << "FAILED " << id << ": " << unrecorded
                          << " audit violation(s)\n";
            }
        }
        first = i;
    }
    // Export the way the timed run does: the Grid document for the grid
    // workloads, the flat result list for the seed sweep.
    analysis::Grid grid;
    if (w.seedsPerRep == 1)
        for (const auto &res : traced)
            grid[res.kernel][res.config] = res;
    {
        SpanRecorder::Scope s(rec, "analysis.export");
        size_t exported = w.seedsPerRep == 1
                              ? analysis::toJson(grid).size()
                              : analysis::toJson(traced).size();
        panic_if(exported == 0, "empty export");
    }
    rec.close(root);
    const double tracedWall = rec.spans()[size_t(root)].seconds();

    if (digestsOf(traced) != digests) {
        std::cerr << "perfbench: traced run differs from the untraced run "
                     "in simulated output\n";
        consistent = false;
    }
    std::map<std::string, double> layerSelf = rec.layerSelfTimes();
    double selfSum = 0;
    for (const auto &[layer, t] : layerSelf)
        selfSum += t;
    if (selfSum > tracedWall * (1 + 1e-9)) {
        std::cerr << "perfbench: layer self times sum to " << selfSum
                  << " s, more than the traced wall " << tracedWall
                  << " s\n";
        consistent = false;
    }

    // Per-cell span durations, by cell id and span name.
    std::map<std::string, std::map<std::string, double>> byCell;
    for (const auto &s : rec.spans())
        if (!s.id.empty())
            byCell[s.id][s.name] += s.seconds();

    std::map<std::string, double> runByConfig;
    double simSelf = 0, simdSelf = 0, mimdSelf = 0;
    uint64_t events = 0, simdEvents = 0, mimdEvents = 0;
    uint64_t ffActivations = 0, ffIterations = 0;
    uint64_t ffEpochs = 0, ffSaved = 0;
    uint64_t cycles = 0, activations = 0, mappings = 0, insts = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
        const auto &task = plan.tasks[i];
        const auto &res = traced[i];
        auto &t = byCell[cellId(task)];
        runByConfig[task.config] += t["arch.run"];
        // arch.run also lowers, analyses and (when on) checks the plan.
        double self = t["arch.run"] - t["sched.lower"] - t["cost.analyze"] -
                      (w.checked ? t["check.verify"] : 0.0);
        bool mimd = arch::configByName(task.config).mech.localPC;
        simSelf += self;
        (mimd ? mimdSelf : simdSelf) += self;
        events += res.hostEvents;
        (mimd ? mimdEvents : simdEvents) += res.hostEvents;
        if (task.config == "S" || task.config == "S-O" ||
            task.config == "S-O-D") {
            ffActivations += res.activations;
            ffIterations += res.ffIterations;
        }
        ffEpochs += res.ffEpochs;
        ffSaved += res.ffEventsSaved;
        cycles += res.cycles;
        activations += res.activations;
        mappings += res.mappings;
        insts += res.instsExecuted;
    }

    double cellSum = 0, tailCell = 0;
    for (const auto &res : untraced.results) {
        cellSum += res.hostSeconds;
        tailCell = std::max(tailCell, res.hostSeconds);
    }
    const double fixtureS = rec.total("kernels.fixture");
    const double instantiateS = rec.total("kernels.instantiate");
    const double auditS = rec.total("verify.audit");
    const double exportS = rec.total("analysis.export");
    // Work outside the cells' own host timers, as measured in the traced
    // walk; what the untraced wall holds beyond it is the sweep driver's.
    double outsideCells =
        fixtureS + instantiateS + exportS + (w.checked ? auditS : 0.0);
    double workers = double(jobs);

    json::Value m = json::Value::object();
    auto ns = [](double s, uint64_t n) { return n ? s * 1e9 / double(n) : 0; };
    m.set("ref.blowfish_init_s", metric(bfInit, "s"));
    m.set("kernels.catalog_s", metric(catalog, "s"));
    m.set("kernels.fixture_s", metric(fixtureS, "s"));
    m.set("kernels.instantiate_s", metric(instantiateS, "s"));
    m.set("sched.lower_s", metric(rec.total("sched.lower"), "s"));
    m.set("cost.analyze_s", metric(rec.total("cost.analyze"), "s"));
    m.set("check.verify_s", metric(rec.total("check.verify"), "s"));
    m.set("verify.audit_s", metric(auditS, "s"));
    m.set("arch.run_s", metric(rec.total("arch.run"), "s"));
    for (const auto &config : arch::allConfigNames())
        m.set("arch.run_s." + config, metric(runByConfig[config], "s"));
    m.set("arch.sim_self_s", metric(simSelf, "s"));
    m.set("sim.events", metric(double(events), "count"));
    m.set("sim.ns_per_event", metric(ns(simSelf, events), "ns"));
    m.set("core.simd.events", metric(double(simdEvents), "count"));
    m.set("core.simd.ns_per_event", metric(ns(simdSelf, simdEvents), "ns"));
    m.set("core.mimd.events", metric(double(mimdEvents), "count"));
    m.set("core.mimd.ns_per_event", metric(ns(mimdSelf, mimdEvents), "ns"));
    m.set("epoch.ff_epochs", metric(double(ffEpochs), "count"));
    m.set("epoch.ff_iterations", metric(double(ffIterations), "count"));
    m.set("epoch.events_saved", metric(double(ffSaved), "count"));
    m.set("epoch.ff_share",
          metric(ffActivations ? double(ffIterations) / double(ffActivations)
                               : 0.0,
                 "ratio"));
    m.set("driver.overhead_s",
          metric(untraced.wall - (outsideCells + cellSum) / workers, "s"));
    m.set("driver.tail_cell_s", metric(tailCell, "s"));
    m.set("analysis.export_s", metric(exportS, "s"));
    m.set("sim.cycles", metric(double(cycles), "cycles"));
    m.set("core.activations", metric(double(activations), "count"));
    m.set("core.mappings", metric(double(mappings), "count"));
    m.set("core.insts", metric(double(insts), "count"));
    m.set("noc.hops", metric(statSum(traced, "noc.mesh", "totalHops"),
                             "count"));
    m.set("noc.operands",
          metric(statSum(traced, "noc.mesh", "operandsRouted"), "count"));
    m.set("noc.contention_ticks",
          metric(statSum(traced, "noc.mesh", "contentionTicks"), "ticks"));
    m.set("mem.l1_accesses",
          metric(statSum(traced, "mem.sys", "l1Hits") +
                     statSum(traced, "mem.sys", "l1Misses"),
                 "count"));
    m.set("mem.l1_misses",
          metric(statSum(traced, "mem.sys", "l1Misses"), "count"));
    m.set("mem.l2_misses",
          metric(statSum(traced, "mem.sys", "l2Misses"), "count"));
    m.set("mem.smc_reads", metric(statSum(traced, "mem.smc", "reads"),
                                  "count"));
    m.set("mem.smc_writes", metric(statSum(traced, "mem.smc", "writes"),
                                   "count"));
    m.set("mem.smc_bank_conflicts",
          metric(vectorSum(traced, "mem.smc", "bankConflicts"), "count"));
    m.set("cost.bound_violations", metric(double(boundViolations), "count"));
    m.set("check.findings", metric(double(checkFindings), "count"));
    m.set("trace.wall_s", metric(tracedWall, "s"));
    m.set("trace.overhead_s", metric(tracedWall - untraced.wall, "s"));

    std::string digest = combinedDigest(digests);
    json::Value doc = rec.chromeTrace();
    json::Value other = json::Value::object();
    other.set("workload", w.name);
    other.set("seed", seed);
    other.set("digest", digest);
    json::Value selfJson = json::Value::object();
    for (const auto &[layer, t] : layerSelf)
        selfJson.set(layer, t);
    other.set("layerSelfSeconds", std::move(selfJson));
    doc.set("otherData", std::move(other));
    analysis::writeJsonFile(traceOut, doc);

    std::cout << "workload " << w.name << " seed " << seed << ": traced "
              << plan.size() << " cells, " << rec.spans().size()
              << " spans written to " << traceOut << "\n"
              << "simulated digest " << digest << "\n";
    for (const auto &[layer, t] : layerSelf)
        std::cout << "self time " << layer << ": " << t << " s\n";

    json::Value out = json::Value::object();
    out.set("correct", consistent && gate.failed == 0);
    out.set("attempted", gate.attempted);
    out.set("failed", gate.failed);
    out.set("metrics", std::move(m));
    emit(out);
    return out.at("correct").asBool() ? 0 : 1;
}

} // namespace perfbench
