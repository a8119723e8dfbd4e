/**
 * @file
 * The offline workload, paper_sweep: in-process SweepDriver sweeps
 * issued as a closed loop of requests, each one what a figure binary
 * does on one invocation.
 */

#include "offline.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "trace.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace sfetch;

namespace
{

SimConfig
pointConfig(const std::string &arch, unsigned width, bool optimized,
            InstCount insts, InstCount warmup)
{
    SimConfig cfg(arch);
    cfg.width = width;
    cfg.optimizedLayout = optimized;
    cfg.insts = insts;
    cfg.warmupInsts = warmup;
    return cfg;
}

struct RequestResult
{
    ResultSet rows;
    std::vector<std::string> json;
    double latency = 0, ttfr = 0;
    std::size_t arenaPoints = 0; //!< points the driver replayed
    std::size_t arenaBytes = 0;  //!< arena bytes resident after the run
    double decodeSeconds = 0;    //!< serial re-decode of those arenas
};

/**
 * One request, what a figure binary does on one invocation: run the
 * sweep, with the driver's own decode, and serialize its rows. Arenas
 * are dropped before and after, so every request pays decode.
 *
 * Afterwards the arenas the driver left in the cache tell which
 * points it replayed. With @p time_decode those arenas are then
 * decoded again, one at a time through PlacedWorkload::arena, outside
 * the request, to time the decode layer alone.
 */
RequestResult
runRequest(SweepDriver &driver, const std::vector<SweepPoint> &points,
           std::uint64_t req, bool time_decode, Tracer &tracer)
{
    WorkloadCache &cache = WorkloadCache::instance();
    std::set<std::string> benches;
    for (const SweepPoint &p : points)
        benches.insert(p.bench);
    for (const std::string &bench : benches)
        cache.get(bench).dropArenas();

    RequestResult out;
    Clock::time_point first_row;
    bool have_first = false;
    {
        Tracer::Scope root(tracer, "bench.request", req);
        const auto t0 = Clock::now();
        {
            Tracer::Scope span(tracer, "sim.sweep", req);
            // Row callbacks are serialized by the driver; the flag is
            // read only after run() has joined its threads.
            out.rows = driver.run(points, [&](const ResultRow &, std::size_t,
                                              std::size_t) {
                if (!have_first) {
                    first_row = Clock::now();
                    have_first = true;
                }
            });
        }
        {
            Tracer::Scope span(tracer, "results.serialize", req);
            out.json.reserve(out.rows.size());
            for (std::size_t i = 0; i < out.rows.size(); ++i)
                out.json.push_back(out.rows.rowJson(i));
        }
        out.latency = secondsSince(t0);
        out.ttfr = have_first
            ? std::chrono::duration<double>(first_row - t0).count()
            : out.latency;
    }

    // (bench, layout) -> longest committed path the driver decoded.
    std::map<std::pair<std::string, bool>, InstCount> decoded;
    out.arenaBytes = cache.bytesResident();
    for (const SweepPoint &p : points) {
        const InstCount len =
            p.cfg.insts + p.cfg.warmupInsts + kFetchAheadMargin;
        if (!cache.get(p.bench).cachedArena(p.cfg.optimizedLayout, len))
            continue;
        ++out.arenaPoints;
        InstCount &longest = decoded[{p.bench, p.cfg.optimizedLayout}];
        longest = std::max(longest, len);
    }
    for (const std::string &bench : benches)
        cache.get(bench).dropArenas();
    if (time_decode && !decoded.empty()) {
        Tracer::Scope root(tracer, "bench.arena_decode", req);
        for (const auto &[key, len] : decoded) {
            const PlacedWorkload &work = cache.get(key.first);
            const auto t0 = Clock::now();
            {
                Tracer::Scope span(tracer, "layout.arena", req);
                work.arena(key.second, len);
            }
            out.decodeSeconds += secondsSince(t0);
            work.dropArenas();
        }
    }
    return out;
}

} // namespace

OfflinePlan
paperSweepPlan(const Size &size, std::uint64_t seed)
{
    Pcg32 rng(seed, 0x9a9e5);
    const std::vector<std::string> &suite = suiteNames();
    std::vector<std::string> benches = suite;
    // The seed varies the generated programs, never which presets run,
    // so seeds differ in detail but not in character.
    for (const char *preset : {"gzip", "gcc"})
        benches.push_back(canonicalBenchSpec(
            std::string("synth:preset=") + preset +
            ",seed=" + std::to_string(1000 + seed * 2 + benches.size())));

    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : paperArchConfigs())
        for (unsigned width : {2u, 4u, 8u})
            for (bool opt : {false, true})
                cfgs.push_back(pointConfig(arch.arch(), width, opt,
                                           size.insts, size.warmup));

    OfflinePlan plan;
    shuffle(benches, rng);
    for (const std::string &bench : benches)
        plan.requests.push_back(SweepDriver::grid({bench}, cfgs));
    plan.benches = benches;
    return plan;
}

void
runOffline(const OfflinePlan &plan, const Options &opt, Report &report)
{
    const Size size = sizeByName(opt.size);
    WorkloadCache &cache = WorkloadCache::instance();
    // Half the host's threads: on a shared virtual machine, time stolen
    // from any busy vCPU stalls the request it runs, so a sweep that
    // fills every vCPU measures the host's scheduler as much as sfetch.
    SweepDriver driver(std::max(1u, std::thread::hardware_concurrency() / 2));
    driver.setQuiet(true);
    Tracer tracer;

    // Set-up: cold workload builds, as every figure invocation pays.
    // Half the repetitions run before the timed phase and half after,
    // so the median spans the run's host conditions.
    std::vector<double> setup;
    auto cold_setup = [&](unsigned reps) {
        for (unsigned r = 0; r < reps; ++r) {
            cache.clear();
            const auto t0 = Clock::now();
            driver.forEachWorkload(plan.benches,
                                   [](const PlacedWorkload &, std::size_t) {});
            setup.push_back(secondsSince(t0));
        }
    };
    cold_setup(size.setupReps / 2);
    double build_s = 0;
    if (opt.trace) {
        cache.clear();
        tracer.setEnabled(true);
        {
            Tracer::Scope root(tracer, "bench.setup");
            for (const std::string &bench : plan.benches) {
                Tracer::Scope span(tracer, "workload.get");
                cache.get(bench);
            }
        }
        for (double d : tracer.durations("workload.get"))
            build_s += d;
    }

    // Timed phase: a closed loop over the plan's requests. Trace runs
    // alternate untraced and traced passes so both see the same mix.
    const std::size_t pass = plan.requests.size();
    const std::size_t min_requests = opt.trace ? 2 * pass : pass;
    std::vector<double> latency, ttfr;
    double insts[2] = {0, 0}, busy[2] = {0, 0}, point_s = 0;
    double total_insts = 0, arena_points = 0, points = 0;
    std::vector<double> req_start, req_end, req_insts_v;
    std::size_t arena_bytes = 0;
    std::vector<double> decode_s;
    SimDigest digest;
    std::vector<ResultRow> reference;
    const auto t_start = Clock::now();
    for (std::size_t j = 0;
         j < min_requests || secondsSince(t_start) < opt.seconds; ++j) {
        const auto &points_j = plan.requests[j % plan.requests.size()];
        const bool traced = opt.trace && (j / pass) % 2 == 1;
        tracer.setEnabled(traced);
        report.attempt();
        req_start.push_back(secondsSince(t_start));
        RequestResult rr;
        try {
            rr = runRequest(driver, points_j, j, traced, tracer);
        } catch (const std::exception &e) {
            report.fail(std::string("request failed: ") + e.what());
            break;
        }
        tracer.setEnabled(false);
        if (rr.rows.size() != points_j.size())
            report.fail("request returned " + std::to_string(rr.rows.size()) +
                        " of " + std::to_string(points_j.size()) + " rows");
        latency.push_back(rr.latency);
        ttfr.push_back(rr.ttfr);
        arena_bytes = std::max(arena_bytes, rr.arenaBytes);
        if (traced)
            decode_s.push_back(rr.decodeSeconds);
        arena_points += double(rr.arenaPoints);
        points += double(points_j.size());
        double req_insts = 0;
        for (std::size_t i = 0; i < rr.rows.size(); ++i) {
            const ResultRow &row = rr.rows.at(i);
            const std::string err = rowIdentityError(row);
            const bool first = j < plan.requests.size();
            const bool consistent = digest.add(row, simPart(rr.json[i]));
            report.check(err.empty() && consistent,
                         err.empty() ? pointKey(row.bench, row.cfg) +
                                           ": differs from its first run"
                                     : err);
            if (first)
                reference.push_back(row);
            req_insts += simInsts(row);
            if (traced)
                point_s += row.wallSeconds;
        }
        total_insts += req_insts;
        insts[traced] += req_insts;
        req_insts_v.push_back(req_insts);
        req_end.push_back(secondsSince(t_start));
        busy[traced] += rr.latency;
    }
    const double timed_s = secondsSince(t_start);
    const double rss = peakRssMb();
    cold_setup(size.setupReps - size.setupReps / 2);

    std::ostringstream os;
    os << "timed phase: " << latency.size() << " requests, "
       << total_insts / 1e6 << " M simulated insts in " << timed_s
       << " s on " << driver.jobs() << " threads";
    report.note(os.str());
    report.note("digest: " + opt.workload + " seed=" +
                std::to_string(opt.seed) + " " + digest.hex() + " over " +
                std::to_string(digest.size()) + " distinct points");

    // Outside the timed phase: sample points rerun live and through
    // an arena must both reproduce the timed rows exactly.
    tracer.setEnabled(opt.trace);
    oracleSampleCheck(reference, size.samplePoints, opt.seed, opt.trace,
                      opt.corruptReference, tracer, report);

    if (!opt.trace) {
        reportSetup(setup, report);
        reportThroughput(req_start, req_end, req_insts_v, pass, report);
        reportLatency(latency, ttfr, report);
        report.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    const std::vector<std::string> probe_benches(plan.benches.begin(),
                                                 plan.benches.begin() + 2);
    engineProbes(probe_benches, size.insts, tracer, report);
    digest.reportCounts(report);
    report.metric("workload.build_s", build_s, "s");
    // The cache is warm by construction here; only serve_fanout's
    // workers see misses.
    report.metric("workload.cache_hit_ratio", 0.0, "ratio");
    report.metric("layout.arena_decode_s", arithmeticMean(decode_s), "s");
    report.metric("layout.arena_point_share", arena_points / points, "ratio");
    report.metric("layout.arena_mb", double(arena_bytes) / (1 << 20), "MiB");
    const std::vector<double> sweeps = tracer.durations("sim.sweep");
    double sweep_total = 0;
    for (double s : sweeps)
        sweep_total += s;
    report.metric("sim.sweep_s", arithmeticMean(sweeps), "s");
    report.metric("sim.parallel_efficiency",
                  point_s / (driver.jobs() * sweep_total), "ratio");
    report.metric("results.serialize_s",
                  arithmeticMean(tracer.durations("results.serialize")), "s");
    reportServeNotApplicable(report);
    report.metric("trace.overhead_frac",
                  1.0 - (insts[1] / busy[1]) / (insts[0] / busy[0]), "ratio");
    finishTrace(tracer, opt, report);
}

} // namespace perfbench
