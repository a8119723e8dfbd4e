/**
 * @file
 * Reproduces Table 3 of the paper: branch misprediction rate and
 * fetch IPC for the 8-wide processor, base and optimized codes,
 * averaged over the suite. Also prints the processor IPC columns.
 *
 * Usage: table3_fetch_metrics [--insts N] [--bench name]
 *                             [--arch SPEC,...] [--jobs N]
 *                             [--format table|csv|json]
 */

#include <cstdio>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "util/table.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'500'000;

    CliParser cli("table3_fetch_metrics",
                  "Table 3: mispredict rate and fetch IPC, 8-wide "
                  "processor");
    cli.addStandard(&opts, CliParser::kSweep);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    const std::vector<SimConfig> archs = opts.archsOrPaperSet();
    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : archs)
        for (bool opt : {false, true})
            cfgs.push_back(opts.stamped(arch, 8, opt));

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("Table 3: branch misprediction rate and fetch IPC, "
                "8-wide processor (%llu insts)\n\n",
                static_cast<unsigned long long>(opts.insts));

    TablePrinter tp;
    tp.addHeader({"", "base Mispred.", "base Fetch", "base IPC",
                  "opt Mispred.", "opt Fetch", "opt IPC"});
    for (const SimConfig &arch : archs) {
        auto sel = [&](bool opt) {
            return [&, opt](const ResultRow &r) {
                return r.cfg.specText() == arch.specText() &&
                    r.cfg.optimizedLayout == opt;
            };
        };
        auto mis = [](const ResultRow &r) {
            return r.stats.mispredictRate();
        };
        auto fipc = [](const ResultRow &r) {
            return r.stats.fetchIpc();
        };
        auto ipc = [](const ResultRow &r) { return r.stats.ipc(); };
        tp.addRow({arch.label(),
                   TablePrinter::pct(
                       rs.mean(MeanKind::Arithmetic, sel(false), mis)),
                   TablePrinter::fmt(
                       rs.mean(MeanKind::Arithmetic, sel(false), fipc),
                       1),
                   TablePrinter::fmt(
                       rs.mean(MeanKind::Harmonic, sel(false), ipc)),
                   TablePrinter::pct(
                       rs.mean(MeanKind::Arithmetic, sel(true), mis)),
                   TablePrinter::fmt(
                       rs.mean(MeanKind::Arithmetic, sel(true), fipc),
                       1),
                   TablePrinter::fmt(
                       rs.mean(MeanKind::Harmonic, sel(true), ipc))});
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}
