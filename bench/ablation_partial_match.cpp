/**
 * @file
 * Verifies the paper's footnote 3: "in the context of code layout
 * optimizations, the partial matching optimization actually causes a
 * drop in trace cache performance." Runs the trace cache engine with
 * and without the `partial_match` parameter on both layouts.
 *
 * Usage: ablation_partial_match [--insts N] [--bench name] [--jobs N]
 *                               [--format table|csv|json]
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
    opts.insts = 1'000'000;

    CliParser cli("ablation_partial_match",
                  "Partial matching ablation for the trace cache "
                  "(8-wide)");
    cli.addStandard(&opts,
                    CliParser::kSweep & ~unsigned(CliParser::kArch));
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);

    std::vector<SimConfig> cfgs;
    for (bool opt : {false, true}) {
        for (bool partial : {false, true}) {
            SimConfig cfg =
                opts.stamped(SimConfig("trace"), 8, opt);
            cfg.params().setBool("partial_match", partial);
            cfgs.push_back(cfg);
        }
    }

    SweepDriver driver(opts.jobs);
    ResultSet rs = driver.run(SweepDriver::grid(opts.benches, cfgs));
    if (emitMachineReadable(rs, opts.format))
        return 0;

    std::printf("Partial matching ablation for the trace cache "
                "(8-wide, %llu insts)\n",
                static_cast<unsigned long long>(opts.insts));
    std::printf("Paper footnote 3: partial matching *hurts* with "
                "layout-optimized codes.\n\n");

    TablePrinter tp;
    tp.addHeader({"layout", "partial match", "IPC", "mispredict",
                  "partial hits"});
    for (bool opt : {false, true}) {
        for (bool partial : {false, true}) {
            auto sel = [&](const ResultRow &r) {
                return r.cfg.optimizedLayout == opt &&
                    r.cfg.params().getBool("partial_match") ==
                    partial;
            };
            double phits = 0.0;
            for (double v : rs.collect(sel, [](const ResultRow &r) {
                     return r.stats.engine.get("tc.partial_hits");
                 }))
                phits += v;
            tp.addRow({opt ? "optimized" : "base",
                       partial ? "on" : "off",
                       TablePrinter::fmt(rs.mean(
                           MeanKind::Harmonic, sel,
                           [](const ResultRow &r) {
                               return r.stats.ipc();
                           })),
                       TablePrinter::pct(rs.mean(
                           MeanKind::Arithmetic, sel,
                           [](const ResultRow &r) {
                               return r.stats.mispredictRate();
                           })),
                       TablePrinter::fmt(phits, 0)});
        }
    }
    std::printf("%s", tp.render().c_str());
    return 0;
}
