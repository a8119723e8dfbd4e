/**
 * @file
 * Steady-state allocation gate for the simulator hot loop. The
 * zero-allocation refactor (fixed-capacity FetchBundle, ring-buffer
 * fetch buffer / ROB / FTQ, incremental oracle) is contractually
 * allocation-free per simulated cycle; this test instruments global
 * operator new and asserts that simulating *more* instructions does
 * not allocate more memory — i.e. allocation cost is O(1) per run
 * (end-of-run stats assembly), not O(cycles).
 *
 * At the seed revision the hot loop allocated ~3.6 times per cycle
 * (fresh std::vector per fetchCycle, deque churn, unordered_map per
 * branch), which this test would fail by five orders of magnitude.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "pipeline/processor.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/alloc_gates.hh"
#include "util/alloc_hook.hh"

namespace sfetch
{
namespace
{

/** Allocations during one measured continuation run of @p proc. */
std::uint64_t
allocsDuring(Processor &proc, InstCount insts)
{
    std::uint64_t before = allocCount();
    proc.run(insts);
    return allocCount() - before;
}

void
expectSteadyStateAllocFree(const char *arch,
                           const OracleArena *arena = nullptr)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    SimConfig cfg(arch);
    const CodeImage &image = work.image(true);

    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);
    auto engine = cfg.makeEngine(image, &mem);

    ProcessorConfig pc;
    Processor proc(pc, engine.get(), image, work.model(), &mem,
                   kRefSeed, nullptr, arena);

    // Warm up: predictor tables, commit-side sets, vector capacities.
    proc.run(30000, 10000);

    // A short and a 3x longer continuation. Each includes the same
    // fixed end-of-run cost (StatSet assembly); a hot loop that
    // allocates would scale with the extra instructions. Both span
    // several window lengths, so a private window refills in each:
    // the gate covers the refill too.
    const InstCount win = OracleArena::kWindowInsts;
    const std::uint64_t r0 = proc.windowRefills();
    std::uint64_t a_short = allocsDuring(proc, 3 * win);
    const std::uint64_t r1 = proc.windowRefills();
    std::uint64_t a_long = allocsDuring(proc, 9 * win);
    if (!arena) {
        EXPECT_GE(r1 - r0, 2u) << arch;
        EXPECT_GE(proc.windowRefills() - r1, 8u) << arch;
    }

    EXPECT_LE(a_long, a_short + kSteadyStateAllocSlack)
        << arch << (arena ? " (arena replay)" : " (window replay)")
        << ": allocation count grows with instruction count "
        << "(short run " << a_short << ", long run " << a_long
        << ") - the hot loop allocates";
}

TEST(SteadyStateAllocations, StreamEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("stream");
}

TEST(SteadyStateAllocations, SeqEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("seq");
}

TEST(SteadyStateAllocations, Ev8EngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("ev8");
}

TEST(SteadyStateAllocations, FtbEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("ftb");
}

// The trace-cache path used to allocate per trace built (segment
// vectors in the fill unit's in-progress descriptor and in the cache
// ways, ~0.7 allocations/cycle): the inline-storage TraceDescriptor
// and emit queue make it as allocation-free as the stream path.
TEST(SteadyStateAllocations, TraceEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("trace");
}

// Arena-backed replay must not trade the generator's work for heap
// churn: the pointer-bump oracle and pre-generated data addresses
// allocate nothing either.
TEST(SteadyStateAllocations, ArenaBackedReplayIsAllocationFree)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    const InstCount run = 40'000 + 12 * OracleArena::kWindowInsts;
    auto arena = work.arena(true, run + kFetchAheadMargin);
    expectSteadyStateAllocFree("stream", arena.get());
    expectSteadyStateAllocFree("trace", arena.get());
}

} // namespace
} // namespace sfetch
