/**
 * @file
 * sfetchsim: command-line driver for arbitrary simulations over the
 * engine registry.
 *
 * Usage:
 *   sfetchsim [--arch SPEC[,SPEC...]] [--bench SPEC[,SPEC...]|all]
 *             [--widths W,...] [--layout base|opt] [--insts N]
 *             [--warmup N] [--jobs N] [--format table|csv|json]
 *             [--stats] [--list-archs] [--list-benches]
 *             [--record FILE | --replay FILE]
 *
 * --arch SPEC is `arch[:key=value,...]` over the registered engines
 * (see --list-archs); --bench SPEC is a suite preset name or
 * `family[:key=value,...]` over the registered workload families
 * (see --list-benches).
 *
 * --record captures the committed control path of the (single)
 * benchmark to a versioned binary trace file and runs normally;
 * --replay drives the run from such a file instead of live
 * generation. A recorded run and its replay print bit-identical
 * results on every engine.
 *
 * Examples:
 *   sfetchsim --arch stream --bench gcc --widths 4,8 --layout opt
 *   sfetchsim --arch stream:ftq=8,single_table=1,seq --bench all
 *   sfetchsim --bench loops:depth=4,trips=32,server --stats
 *   sfetchsim --bench phased --record phased.sftr
 *   sfetchsim --bench phased --replay phased.sftr --arch trace
 */

#include <cstdio>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workload/trace_io.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'000'000;
    opts.benches = {"gcc"};
    opts.archs = {SimConfig("stream")};

    opts.widths = {8};
    bool optimized = true;
    bool dump_stats = false;
    std::string record_path;
    std::string replay_path;

    CliParser cli("sfetchsim",
                  "run any registered machine configuration over one "
                  "or more suite benchmarks");
    cli.addStandard(&opts, CliParser::kSweep | CliParser::kWidths |
                               CliParser::kWarmup);
    cli.addOption("--layout", "base|opt",
                  "code layout (default opt)",
                  [&](const std::string &v) {
                      optimized = v != "base";
                  });
    cli.addFlag("--stats", "dump engine-internal statistics",
                [&] { dump_stats = true; });
    cli.addOption("--record", "FILE",
                  "record the benchmark's control trace to FILE "
                  "(single --bench), then run normally",
                  [&](const std::string &v) { record_path = v; });
    cli.addOption("--replay", "FILE",
                  "replay the control trace from FILE instead of "
                  "generating it (single --bench)",
                  [&](const std::string &v) { replay_path = v; });
    cli.parseOrExit(argc, argv);

    if (!record_path.empty() && !replay_path.empty()) {
        std::fprintf(stderr,
                     "sfetchsim: --record and --replay are "
                     "mutually exclusive\n");
        return 2;
    }

    opts.benches = resolveBenches(opts.benches);
    // Width-major, like sfetchd's grid submits.
    std::vector<SimConfig> cfgs;
    for (unsigned width : opts.widths)
        for (const SimConfig &arch : opts.archs)
            cfgs.push_back(opts.stamped(arch, width, optimized));

    ResultSet rs;
    if (!record_path.empty() || !replay_path.empty()) {
        // Trace modes run serially on one benchmark so the recorded
        // path and its replay line up run-for-run.
        std::string bench = requireSingleBench(opts, "sfetchsim");
        try {
            const PlacedWorkload &work =
                WorkloadCache::instance().get(bench);
            RecordedTrace trace;
            const RecordedTrace *replay = nullptr;
            if (!record_path.empty()) {
                trace = recordBenchTrace(work, opts.insts,
                                         opts.warmupFor(opts.insts));
                TraceWriter(record_path).write(trace);
                std::fprintf(stderr,
                             "recorded %zu control records to %s\n",
                             trace.records.size(),
                             record_path.c_str());
            } else {
                trace = TraceReader(replay_path).read();
                replay = &trace;
            }
            for (const SimConfig &cfg : cfgs) {
                ResultRow row;
                row.bench = work.name();
                row.cfg = cfg;
                row.stats = runOn(work, cfg, replay);
                rs.add(std::move(row));
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sfetchsim: %s\n", e.what());
            return 2;
        }
    } else {
        SweepDriver driver(opts.jobs);
        rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    }
    if (emitMachineReadable(rs, opts.format))
        return 0;

    TablePrinter tp;
    tp.addHeader({"benchmark", "arch", "width", "layout", "IPC",
                  "fetch IPC", "mispredict", "L1I miss"});
    std::vector<double> ipcs;
    for (const ResultRow &r : rs.rows()) {
        ipcs.push_back(r.stats.ipc());
        tp.addRow({r.bench, r.cfg.label(),
                   std::to_string(r.cfg.width),
                   r.cfg.optimizedLayout ? "opt" : "base",
                   TablePrinter::fmt(r.stats.ipc()),
                   TablePrinter::fmt(r.stats.fetchIpc()),
                   TablePrinter::pct(r.stats.mispredictRate()),
                   TablePrinter::pct(r.stats.l1iMissRate, 2)});
        if (dump_stats)
            std::printf("--- %s / %s engine stats ---\n%s",
                        r.bench.c_str(), r.cfg.label().c_str(),
                        r.stats.engine.dump().c_str());
    }
    if (rs.size() > 1) {
        tp.addSeparator();
        tp.addRow({"Hmean", "", "", "",
                   TablePrinter::fmt(harmonicMean(ipcs)), "", "",
                   ""});
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}
