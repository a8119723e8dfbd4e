/**
 * @file
 * perfbench: the sfetch benchmark binary. perfbench/run.py builds it
 * and runs it; see perfbench/README.md for the workloads, metrics and
 * the A/B protocol.
 *
 *   perfbench --workload paper_sweep|serve_fanout
 *             --seed N --seconds S --trace 0|1 [--size full|tiny]
 *             [--trace-out FILE] [--sfetchd PATH] [--log-dir DIR]
 *             [--corrupt-reference]
 *
 * Prints notes and metrics, then one JSON result line last. Exits 1
 * when any operation failed or any output check did not hold.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hh"
#include "offline.hh"
#include "serve.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_sweep|serve_fanout --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--trace-out FILE] [--sfetchd PATH] [--log-dir DIR] "
                 "[--corrupt-reference]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--corrupt-reference") {
            opt.corruptReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--size")
                opt.size = v;
            else if (a == "--trace-out")
                opt.traceOut = v;
            else if (a == "--sfetchd")
                opt.sfetchd = v;
            else if (a == "--log-dir")
                opt.logDir = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Report report;
    report.note("sfetch benchmark: workload " + opt.workload + ", seed " +
                std::to_string(opt.seed) + ", size " + opt.size +
                (opt.trace ? ", traced" : ", untraced"));
    report.note("model: simulated counts are host-independent and repeat "
                "exactly for a seed; the model is unvalidated against "
                "hardware, so no error figure is given. Modelled caches "
                "start empty at warmup; statistics start after warmup.");
    try {
        const Size size = sizeByName(opt.size);
        if (opt.workload == "paper_sweep")
            runOffline(paperSweepPlan(size, opt.seed), opt, report);
        else if (opt.workload == "serve_fanout")
            runServeFanout(opt, report);
        else
            usage("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        report.fail(std::string("aborted: ") + e.what());
    }
    report.print();
    return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
