/**
 * @file
 * Reproduces Figure 8 of the paper: harmonic-mean IPC over the
 * SPECint-like suite for the four fetch architectures, at pipe
 * widths 2, 4 and 8, with baseline and layout-optimized codes.
 * `--arch` swaps in any registered engine specs (e.g. `seq` or
 * `stream:single_table=1`) with no other changes.
 *
 * Usage: fig8_ipc [--insts N] [--widths 2,4,8] [--bench name]
 *                 [--arch SPEC,...] [--jobs N]
 *                 [--format table|csv|json]
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
    opts.widths = {2, 4, 8};

    CliParser cli("fig8_ipc",
                  "Figure 8: harmonic-mean IPC per width, base vs "
                  "optimized layouts");
    cli.addStandard(&opts, CliParser::kSweep | CliParser::kWidths);
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    const std::vector<SimConfig> archs = opts.archsOrPaperSet();
    std::vector<SimConfig> cfgs;
    for (unsigned width : opts.widths)
        for (const SimConfig &arch : archs)
            for (bool opt : {false, true})
                cfgs.push_back(opts.stamped(arch, width, opt));

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("Figure 8: IPC for pipeline widths, base vs "
                "optimized layouts\n");
    std::printf("(harmonic mean over %zu benchmarks, %llu measured "
                "insts each)\n\n",
                opts.benches.size(),
                static_cast<unsigned long long>(opts.insts));

    for (unsigned width : opts.widths) {
        std::printf("---- Figure 8%c: %u-wide processor ----\n",
                    width == 2 ? 'a' : (width == 4 ? 'b' : 'c'),
                    width);
        TablePrinter tp;
        tp.addHeader({"architecture", "base IPC", "optimized IPC",
                      "opt/base"});
        for (const SimConfig &arch : archs) {
            auto ipcOf = [&](bool opt) {
                return rs.mean(
                    MeanKind::Harmonic,
                    [&](const ResultRow &r) {
                        return r.cfg.width == width &&
                            r.cfg.specText() == arch.specText() &&
                            r.cfg.optimizedLayout == opt;
                    },
                    [](const ResultRow &r) { return r.stats.ipc(); });
            };
            double b = ipcOf(false);
            double o = ipcOf(true);
            tp.addRow({arch.label(), TablePrinter::fmt(b),
                       TablePrinter::fmt(o),
                       TablePrinter::fmt(b > 0 ? o / b : 0, 3)});
        }
        std::printf("%s\n", tp.render().c_str());
    }
    return 0;
}
