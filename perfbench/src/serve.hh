/**
 * @file
 * serve_fanout: the only workload that exercises sfetchd. The
 * benchmark spawns a front sfetchd with three worker sfetchds and
 * drives it from one closed-loop client connection with ~16-point
 * submits, a fixed share of which name a bench no earlier submit
 * used, under a worker memory budget below the rotation's arena
 * footprint.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include "common.hh"

namespace perfbench
{

/** Spawn the fleet, run the timed closed loop, check, and report.
 * Every daemon is killed and reaped before this returns or throws. */
void runServeFanout(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
