/**
 * @file
 * The offline workload: in-process SweepDriver sweeps.
 *
 * paper_sweep is the paper's grid (4 engines x widths {2,4,8} x both
 * layouts) over the suite presets plus two seeded synth variants,
 * one request per bench; each (bench, layout) group has 12 points and
 * replays one shared arena.
 */

#ifndef PERFBENCH_OFFLINE_HH
#define PERFBENCH_OFFLINE_HH

#include <string>
#include <vector>

#include "common.hh"
#include "sim/driver.hh"

namespace perfbench
{

struct OfflinePlan
{
    std::vector<std::string> benches; //!< canonical specs, seeded order
    std::vector<std::vector<sfetch::SweepPoint>> requests; //!< one pass
};

OfflinePlan paperSweepPlan(const Size &size, std::uint64_t seed);

/** Set up, run the timed closed loop, check, and report. */
void runOffline(const OfflinePlan &plan, const Options &opt,
                Report &report);

} // namespace perfbench

#endif // PERFBENCH_OFFLINE_HH
