/**
 * @file
 * Golden-stats regression gate for the zero-allocation hot-loop
 * refactor: every registered engine must produce *bit-identical*
 * SimStats to the pre-refactor (seed-revision) simulator. The golden
 * values below were recorded at commit d62e046 ("PR 2"), before the
 * FetchBundle / ring-buffer / incremental-oracle rework, for the
 * gzip workload in two configurations. Any divergence means a
 * performance change altered simulated behaviour, which the hot-loop
 * work is contractually forbidden to do.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/experiment.hh"
#include "sim/workload_cache.hh"

namespace sfetch
{
namespace
{

struct GoldenRow
{
    const char *arch;
    // cycles, committedInsts, committedBranches, committedCond,
    // mispredicts, condMispredicts, fetchedCorrect, fetchedWrong,
    // fetchCyclesAttempted, fetchOppInsts
    std::uint64_t v[10];
};

// gzip, width 8, optimized layout, 60k measured / 10k warmup.
const GoldenRow kGoldenW8Opt[] = {
    {"ev8",
     {27038ull, 60001ull, 7164ull, 6911ull, 156ull, 144ull, 60007ull,
      11304ull, 13377ull, 55763ull}},
    {"ftb",
     {27206ull, 60006ull, 7164ull, 6911ull, 223ull, 211ull, 60007ull,
      18280ull, 14006ull, 55989ull}},
    {"stream",
     {27357ull, 60001ull, 7164ull, 6911ull, 294ull, 226ull, 60011ull,
      28057ull, 13933ull, 56696ull}},
    {"trace",
     {27046ull, 60004ull, 7164ull, 6911ull, 209ull, 201ull, 60011ull,
      27238ull, 11084ull, 56601ull}},
    {"seq",
     {68365ull, 60007ull, 7165ull, 6912ull, 4759ull, 4567ull,
      60083ull, 448686ull, 67089ull, 60083ull}},
};

// gzip, width 4, base layout, 60k measured / 10k warmup.
const GoldenRow kGoldenW4Base[] = {
    {"ev8",
     {28475ull, 60001ull, 7163ull, 6912ull, 163ull, 151ull, 60018ull,
      7943ull, 23555ull, 59312ull}},
    {"ftb",
     {28612ull, 60001ull, 7163ull, 6912ull, 199ull, 187ull, 59999ull,
      9752ull, 23797ull, 59120ull}},
    {"stream",
     {29243ull, 60001ull, 7163ull, 6912ull, 251ull, 243ull, 60003ull,
      12108ull, 24474ull, 59191ull}},
    {"trace",
     {27980ull, 60002ull, 7163ull, 6912ull, 186ull, 178ull, 60001ull,
      13773ull, 18609ull, 58539ull}},
    {"seq",
     {104196ull, 60001ull, 7163ull, 6912ull, 6860ull, 6670ull,
      60001ull, 340778ull, 103268ull, 60001ull}},
};

/**
 * Per-family goldens on the stream and trace engines (width 8,
 * optimized layout, 60k/10k), recorded at commit e5aa252 when the
 * workload registry landed: hot-loop or engine work must keep every
 * registered scenario bit-identical, not just gzip.
 */
struct FamilyGoldenRow
{
    const char *bench;
    const char *arch;
    std::uint64_t v[10];
};

const FamilyGoldenRow kGoldenFamilies[] = {
    {"loops", "stream",
     {26817ull, 60002ull, 4697ull, 4623ull, 400ull, 400ull, 60002ull,
      42107ull, 15429ull, 56205ull}},
    {"loops", "trace",
     {26581ull, 60002ull, 4697ull, 4623ull, 387ull, 387ull, 60003ull,
      54067ull, 14565ull, 56702ull}},
    {"server", "stream",
     {34575ull, 60007ull, 9547ull, 2472ull, 1324ull, 542ull, 60167ull,
      83845ull, 28406ull, 57885ull}},
    {"server", "trace",
     {45963ull, 60000ull, 9546ull, 2472ull, 3009ull, 600ull, 59981ull,
      210660ull, 45731ull, 59981ull}},
    {"thrash", "stream",
     {119667ull, 60000ull, 960ull, 1ull, 5ull, 1ull, 60134ull,
      241ull, 8373ull, 60134ull}},
    {"thrash", "trace",
     {119416ull, 60000ull, 960ull, 1ull, 0ull, 0ull, 60134ull,
      0ull, 8131ull, 60134ull}},
    {"phased", "stream",
     {27021ull, 60007ull, 8456ull, 5970ull, 363ull, 363ull, 59956ull,
      35762ull, 15224ull, 57114ull}},
    {"phased", "trace",
     {29097ull, 60006ull, 8456ull, 5970ull, 708ull, 706ull, 59939ull,
      73430ull, 18150ull, 57483ull}},
};

SimStats
runGolden(const char *bench, const char *arch, unsigned width,
          bool optimized)
{
    const PlacedWorkload &work = WorkloadCache::instance().get(bench);
    SimConfig cfg(arch);
    cfg.width = width;
    cfg.optimizedLayout = optimized;
    cfg.insts = 60000;
    cfg.warmupInsts = 10000;
    return runOn(work, cfg);
}

void
expectGolden(const GoldenRow &g, const SimStats &st)
{
    EXPECT_EQ(st.cycles, g.v[0]) << g.arch << " cycles";
    EXPECT_EQ(st.committedInsts, g.v[1]) << g.arch << " insts";
    EXPECT_EQ(st.committedBranches, g.v[2]) << g.arch << " branches";
    EXPECT_EQ(st.committedCondBranches, g.v[3]) << g.arch << " cond";
    EXPECT_EQ(st.mispredicts, g.v[4]) << g.arch << " mispredicts";
    EXPECT_EQ(st.condMispredicts, g.v[5]) << g.arch << " cond misp";
    EXPECT_EQ(st.fetchedCorrect, g.v[6]) << g.arch << " correct";
    EXPECT_EQ(st.fetchedWrong, g.v[7]) << g.arch << " wrong";
    EXPECT_EQ(st.fetchCyclesAttempted, g.v[8]) << g.arch
                                               << " attempts";
    EXPECT_EQ(st.fetchOppInsts, g.v[9]) << g.arch << " opp insts";
}

TEST(GoldenStats, AllEnginesWidth8Optimized)
{
    for (const GoldenRow &g : kGoldenW8Opt)
        expectGolden(g, runGolden("gzip", g.arch, 8, true));
}

TEST(GoldenStats, AllEnginesWidth4Base)
{
    for (const GoldenRow &g : kGoldenW4Base)
        expectGolden(g, runGolden("gzip", g.arch, 4, false));
}

TEST(GoldenStats, WorkloadFamiliesOnStreamAndTrace)
{
    for (const FamilyGoldenRow &g : kGoldenFamilies) {
        SimStats st = runGolden(g.bench, g.arch, 8, true);
        GoldenRow as_row;
        as_row.arch = g.arch;
        for (int i = 0; i < 10; ++i)
            as_row.v[i] = g.v[i];
        expectGolden(as_row, st);
    }
}

// Reruns on the same process must also be deterministic (the engines
// and processor are freshly constructed per run).
TEST(GoldenStats, RerunIsBitIdentical)
{
    SimStats a = runGolden("gzip", "stream", 8, true);
    SimStats b = runGolden("gzip", "stream", 8, true);
    EXPECT_TRUE(a == b);
}

/**
 * Shared-arena replay (the committed path pre-decoded once into the
 * shared OracleArena, every point replaying it from flat memory)
 * must be bit-identical to a run on its own private window for
 * every registered engine. Pinned on a registry family (phased), not
 * just the gzip preset; width 4 covers the non-default line-size
 * geometry too.
 */
TEST(GoldenStats, ArenaReplayMatchesWindowForEveryEngine)
{
    const PlacedWorkload &work =
        WorkloadCache::instance().get("phased");
    for (unsigned width : {8u, 4u}) {
        for (const std::string &token :
             EngineRegistry::instance().tokens()) {
            SimConfig cfg(token);
            cfg.width = width;
            cfg.optimizedLayout = true;
            cfg.insts = 60000;
            cfg.warmupInsts = 10000;
            auto arena = work.arena(
                true, cfg.insts + cfg.warmupInsts +
                          kFetchAheadMargin);
            SimStats windowed = runOn(work, cfg);
            SimStats replay = runOn(work, cfg, nullptr, arena.get());
            EXPECT_TRUE(windowed == replay)
                << token << " w" << width
                << ": arena replay diverged from window replay";
        }
    }
}

// An arena decoded from a different layout or workload must be
// rejected loudly — replaying foreign PCs would otherwise produce
// plausible but silently wrong stats (parity with the recorded-trace
// path's bench check).
TEST(GoldenStats, ArenaFromWrongLayoutOrWorkloadIsRejected)
{
    const PlacedWorkload &phased =
        WorkloadCache::instance().get("phased");
    const PlacedWorkload &gzip =
        WorkloadCache::instance().get("gzip");
    SimConfig cfg("stream");
    cfg.insts = 1000;
    cfg.warmupInsts = 0;
    cfg.optimizedLayout = true;
    auto base_arena = phased.arena(false, 20'000);
    EXPECT_THROW(runOn(phased, cfg, nullptr, base_arena.get()),
                 std::invalid_argument);
    auto other_workload = gzip.arena(true, 20'000);
    EXPECT_THROW(runOn(phased, cfg, nullptr, other_workload.get()),
                 std::invalid_argument);
}

// The arena path must also hold against the pinned goldens directly:
// phased x {stream, trace} have recorded rows above.
TEST(GoldenStats, ArenaReplayMatchesPinnedFamilyGoldens)
{
    const PlacedWorkload &work =
        WorkloadCache::instance().get("phased");
    auto arena = work.arena(true, 60000 + 10000 + kFetchAheadMargin);
    for (const FamilyGoldenRow &g : kGoldenFamilies) {
        if (std::string(g.bench) != "phased")
            continue;
        SimConfig cfg(g.arch);
        cfg.width = 8;
        cfg.optimizedLayout = true;
        cfg.insts = 60000;
        cfg.warmupInsts = 10000;
        SimStats st = runOn(work, cfg, nullptr, arena.get());
        GoldenRow as_row;
        as_row.arch = g.arch;
        for (int i = 0; i < 10; ++i)
            as_row.v[i] = g.v[i];
        expectGolden(as_row, st);
    }
}

} // namespace
} // namespace sfetch
