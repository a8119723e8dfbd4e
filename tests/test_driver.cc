/**
 * @file
 * Tests for the sweep driver layer: the parallel-equals-serial
 * guarantee, workload caching, CLI helpers, and ResultSet
 * serialization round-trips.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "layout/oracle_arena.hh"
#include "serve/jsonio.hh"
#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"

using namespace sfetch;

namespace
{

/** A small 4-arch x 2-width grid over two benchmarks. */
std::vector<SweepPoint>
smallGrid()
{
    std::vector<RunConfig> cfgs;
    for (ArchKind arch : allArchs()) {
        for (unsigned width : {4u, 8u}) {
            RunConfig cfg;
            cfg.arch = arch;
            cfg.width = width;
            cfg.optimizedLayout = true;
            cfg.insts = 25'000;
            cfg.warmupInsts = 5'000;
            cfgs.push_back(cfg);
        }
    }
    return SweepDriver::grid({"gzip", "vpr"}, cfgs);
}

} // namespace

TEST(SweepDriver, GridIsBenchMajorCrossProduct)
{
    RunConfig a;
    a.width = 2;
    RunConfig b;
    b.width = 8;
    auto points = SweepDriver::grid({"gzip", "gcc"}, {a, b});
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].bench, "gzip");
    EXPECT_EQ(points[0].cfg.width, 2u);
    EXPECT_EQ(points[1].bench, "gzip");
    EXPECT_EQ(points[1].cfg.width, 8u);
    EXPECT_EQ(points[2].bench, "gcc");
    EXPECT_EQ(points[3].bench, "gcc");
}

TEST(SweepDriver, ParallelSweepMatchesSerialExactly)
{
    auto points = smallGrid();

    SweepDriver serial(1);
    serial.setQuiet(true);
    ResultSet rs1 = serial.run(points);

    SweepDriver parallel(4);
    parallel.setQuiet(true);
    ResultSet rs4 = parallel.run(points);

    ASSERT_EQ(rs1.size(), points.size());
    ASSERT_EQ(rs4.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(rs1.at(i).bench, points[i].bench);
        EXPECT_EQ(rs1.at(i).cfg, points[i].cfg);
        // The strong guarantee: every counter and engine stat of the
        // parallel run is bit-identical to the serial run.
        EXPECT_EQ(rs1.at(i).stats, rs4.at(i).stats)
            << "row " << i << " (" << points[i].bench << ", "
            << points[i].cfg.label() << ", w"
            << points[i].cfg.width << ") diverged";
    }
}

TEST(SweepDriver, RepeatedRunsAreDeterministic)
{
    auto points = smallGrid();
    SweepDriver driver(4);
    driver.setQuiet(true);
    ResultSet a = driver.run(points);
    ResultSet b = driver.run(points);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.at(i).stats, b.at(i).stats);
}

/**
 * The second strong guarantee: a sweep replaying the shared
 * pre-decoded committed path (arena mode, the default) is
 * bit-identical to one where every point decodes its own private
 * window. The grid spans every paper engine, two widths and two
 * workloads, so the arena groups cover multiple engines per decode.
 */
TEST(SweepDriver, ArenaSweepMatchesWindowSweepExactly)
{
    auto points = smallGrid();

    SweepDriver windows(2);
    windows.setQuiet(true);
    windows.setArenaMode(false);
    ResultSet rl = windows.run(points);

    SweepDriver arena(2);
    arena.setQuiet(true);
    ASSERT_TRUE(arena.arenaMode()); // the default
    ResultSet ra = arena.run(points);

    ASSERT_EQ(rl.size(), points.size());
    ASSERT_EQ(ra.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(rl.at(i).stats, ra.at(i).stats)
            << "row " << i << " (" << points[i].bench << ", "
            << points[i].cfg.label() << ", w"
            << points[i].cfg.width << ") diverged under arena replay";
    }
}

TEST(SweepDriver, ForEachWorkloadVisitsEveryBenchOnce)
{
    SweepDriver driver(4);
    driver.setQuiet(true);
    std::vector<std::string> benches = {"gzip", "vpr", "eon"};
    std::vector<std::string> seen(benches.size());
    driver.forEachWorkload(benches,
                           [&](const PlacedWorkload &w,
                               std::size_t i) { seen[i] = w.name(); });
    EXPECT_EQ(seen, benches);
}

/**
 * The streaming overload's contract: every row is delivered exactly
 * once, with its point index, and both the streamed rows and the
 * returned ResultSet are bit-identical to a plain run(points) — at
 * one job and at several.
 */
TEST(SweepDriver, RowCallbackStreamsEveryRowIdentically)
{
    auto points = smallGrid();
    SweepDriver base(1);
    base.setQuiet(true);
    ResultSet expect = base.run(points);
    ASSERT_EQ(expect.size(), points.size());

    for (unsigned jobs : {1u, 4u}) {
        SweepDriver driver(jobs);
        driver.setQuiet(true);
        std::vector<char> seen(points.size(), 0);
        std::vector<ResultRow> streamed(points.size());
        std::size_t calls = 0;
        ResultSet rs = driver.run(
            points, [&](const ResultRow &row, std::size_t point,
                        std::size_t of) {
                ASSERT_EQ(of, points.size());
                ASSERT_LT(point, points.size());
                EXPECT_EQ(seen[point], 0)
                    << "point " << point << " delivered twice";
                seen[point] = 1;
                streamed[point] = row;
                ++calls;
            });
        EXPECT_EQ(calls, points.size()) << "jobs=" << jobs;
        ASSERT_EQ(rs.size(), points.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(streamed[i].bench, rs.at(i).bench);
            EXPECT_EQ(streamed[i].cfg, rs.at(i).cfg);
            EXPECT_EQ(streamed[i].stats, rs.at(i).stats)
                << "jobs=" << jobs << " row " << i
                << ": callback row != returned row";
            EXPECT_EQ(rs.at(i).stats, expect.at(i).stats)
                << "jobs=" << jobs << " row " << i
                << ": streamed run != plain run";
        }
    }
}

TEST(SweepDriver, CallbackArrivesInPointOrderWhenSerial)
{
    auto points = smallGrid();
    SweepDriver driver(1);
    driver.setQuiet(true);
    std::vector<std::size_t> order;
    driver.run(points,
               [&](const ResultRow &, std::size_t point,
                   std::size_t) { order.push_back(point); });
    ASSERT_EQ(order.size(), points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepDriver, StopFlagCancelsRemainingPoints)
{
    auto points = smallGrid();
    SweepDriver base(1);
    base.setQuiet(true);
    ResultSet expect = base.run(points);

    std::atomic<bool> stop{false};
    SweepDriver driver(1);
    driver.setQuiet(true);
    driver.setStopFlag(&stop);
    std::size_t calls = 0;
    ResultSet rs = driver.run(
        points, [&](const ResultRow &, std::size_t, std::size_t) {
            if (++calls == 3)
                stop = true;
        });
    EXPECT_EQ(calls, 3u);
    // Completed points survive, in point order, bit-identical to an
    // uncancelled run; everything after the flag flipped is absent.
    ASSERT_EQ(rs.size(), 3u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs.at(i).cfg, expect.at(i).cfg);
        EXPECT_EQ(rs.at(i).stats, expect.at(i).stats);
    }
}

TEST(WorkloadCache, ReturnsSameInstance)
{
    WorkloadCache &cache = WorkloadCache::instance();
    const PlacedWorkload &a = cache.get("gzip");
    const PlacedWorkload &b = cache.get("gzip");
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(a.name(), "gzip");
}

TEST(WorkloadCache, UnknownBenchmarkThrows)
{
    EXPECT_THROW(WorkloadCache::instance().get("not-a-benchmark"),
                 std::invalid_argument);
}

TEST(WorkloadCache, ByteAccountingTracksDecodedArenas)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    EXPECT_EQ(cache.bytesResident(), 0u);
    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictLru(), 0u); // empty cache: nothing to evict
    EXPECT_EQ(cache.evictions(), ev0);

    const PlacedWorkload &gzip = cache.get("gzip");
    EXPECT_EQ(cache.bytesResident(), 0u); // no arena decoded yet
    auto arena = gzip.arena(true, 30'000);
    ASSERT_TRUE(arena);
    EXPECT_GT(arena->bytes(), 0u);
    EXPECT_EQ(cache.bytesResident(), arena->bytes());
    EXPECT_EQ(gzip.arenaBytesResident(), arena->bytes());

    // A second layout's arena adds on top.
    auto base_arena = gzip.arena(false, 30'000);
    EXPECT_EQ(cache.bytesResident(),
              arena->bytes() + base_arena->bytes());
}

TEST(WorkloadCache, EvictLruDropsOldestAndReturnsItsBytes)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto arena = gzip.arena(true, 30'000);
    const std::size_t gzip_bytes = arena->bytes();
    cache.get("vpr"); // more recently used than gzip

    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictLru(), gzip_bytes);
    EXPECT_EQ(cache.evictions(), ev0 + 1);
    EXPECT_FALSE(cache.contains("gzip"));
    EXPECT_TRUE(cache.contains("vpr"));
    // Our shared_ptr still keeps the decoded arena itself alive.
    EXPECT_GE(OracleArena::liveBytes(), gzip_bytes);

    // evictToBudget(0) empties everything evictable.
    cache.evictToBudget(0);
    EXPECT_EQ(cache.bytesResident(), 0u);
}

TEST(WorkloadCache, PinnedEntriesAreNotEvicted)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    std::shared_ptr<const PlacedWorkload> pin =
        cache.getShared("gzip");
    cache.get("vpr");

    // gzip is LRU but pinned, so eviction lands on vpr.
    cache.evictLru();
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_FALSE(cache.contains("vpr"));

    // Nothing evictable while the pin is held.
    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictLru(), 0u);
    EXPECT_EQ(cache.evictions(), ev0);
    EXPECT_TRUE(cache.contains("gzip"));

    pin.reset();
    cache.evictLru();
    EXPECT_FALSE(cache.contains("gzip"));
}

TEST(WorkloadCache, ClearDropsArenaRefsEvenOnPinnedEntries)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    std::shared_ptr<const PlacedWorkload> pin =
        cache.getShared("gzip");
    auto arena = pin->arena(true, 30'000);
    const std::size_t bytes = arena->bytes();
    EXPECT_EQ(cache.bytesResident(), bytes);
    arena.reset(); // the workload's cached slot still holds it
    EXPECT_GE(OracleArena::liveBytes(), bytes);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytesResident(), 0u);
    // The pinned workload survives clear(), usable as ever — but its
    // arena memory was released, not parked.
    EXPECT_EQ(pin->arenaBytesResident(), 0u);
    EXPECT_EQ(pin->name(), "gzip");
}

TEST(WorkloadCache, EvictArenaLruShedsOneLayoutNotTheWorkload)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto base_arena = gzip.arena(false, 30'000); // older stamp
    auto opt_arena = gzip.arena(true, 30'000);   // newer stamp
    const std::size_t base_bytes = base_arena->bytes();
    const std::size_t opt_bytes = opt_arena->bytes();
    base_arena.reset(); // the cache is now each arena's sole owner
    opt_arena.reset();

    // LRU order: the base-layout arena goes first, the workload (and
    // the optimized arena) stay resident.
    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictArenaLru(), base_bytes);
    EXPECT_EQ(cache.evictions(), ev0 + 1);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(gzip.arenaBytes(false), 0u);
    EXPECT_EQ(gzip.arenaBytes(true), opt_bytes);
    EXPECT_EQ(cache.bytesResident(), opt_bytes);

    EXPECT_EQ(cache.evictArenaLru(), opt_bytes);
    EXPECT_EQ(cache.evictArenaLru(), 0u); // nothing left to shed
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(cache.bytesResident(), 0u);

    // An evicted arena is simply re-decoded on next use.
    auto again = gzip.arena(true, 30'000);
    ASSERT_TRUE(again);
    EXPECT_EQ(cache.bytesResident(), again->bytes());
}

TEST(WorkloadCache, ArenaEvictionSkipsArenasHeldByReplays)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto held = gzip.arena(true, 30'000); // a replay in flight
    const std::size_t bytes = held->bytes();

    EXPECT_EQ(cache.evictArenaLru(), 0u)
        << "an externally held arena must never be shed";
    EXPECT_EQ(cache.bytesResident(), bytes);

    held.reset();
    EXPECT_EQ(cache.evictArenaLru(), bytes);
    EXPECT_EQ(cache.bytesResident(), 0u);
}

TEST(WorkloadCache, EvictToBudgetShedsArenasBeforeWholeEntries)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto base_arena = gzip.arena(false, 30'000);
    auto opt_arena = gzip.arena(true, 30'000);
    const std::size_t base_bytes = base_arena->bytes();
    const std::size_t opt_bytes = opt_arena->bytes();
    base_arena.reset();
    opt_arena.reset();

    // A budget that fits one arena sheds only the older one; the
    // workload itself (an expensive build) survives.
    EXPECT_EQ(cache.evictToBudget(opt_bytes), base_bytes);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(cache.bytesResident(), opt_bytes);

    // When the remaining arena is pinned by a replay, the granular
    // path yields nothing and evictToBudget falls back to dropping
    // the whole entry (the cache's reference, not the replay's).
    auto held = gzip.arena(true, 30'000);
    cache.evictToBudget(0);
    EXPECT_FALSE(cache.contains("gzip"));
    EXPECT_EQ(cache.bytesResident(), 0u);
    EXPECT_GE(OracleArena::liveBytes(), held->bytes());
}

TEST(WorkloadCache, HitAndMissCountersAdvance)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const std::uint64_t h0 = cache.hits();
    const std::uint64_t m0 = cache.misses();
    cache.get("gzip");
    EXPECT_EQ(cache.misses(), m0 + 1);
    EXPECT_EQ(cache.hits(), h0);
    cache.get("gzip");
    cache.getShared("gzip");
    EXPECT_EQ(cache.misses(), m0 + 1);
    EXPECT_EQ(cache.hits(), h0 + 2);
}

TEST(ResultSet, CsvRoundTripsRows)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    RunConfig cfg;
    cfg.arch = ArchKind::Stream;
    cfg.width = 8;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    RunConfig cfg2 = cfg;
    cfg2.arch = ArchKind::Trace;
    cfg2.optimizedLayout = false;
    cfg2.tracePartialMatching = true;
    ResultSet rs =
        driver.run(SweepDriver::grid({"gzip"}, {cfg, cfg2}));

    ResultSet back = ResultSet::fromCsv(rs.toCsv());
    ASSERT_EQ(back.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(back.at(i).bench, rs.at(i).bench);
        EXPECT_EQ(back.at(i).cfg, rs.at(i).cfg);
        // CSV carries the counters but not engine-internal stats.
        SimStats expect = rs.at(i).stats;
        expect.engine = StatSet{};
        EXPECT_EQ(back.at(i).stats, expect);
        EXPECT_EQ(back.at(i).wallSeconds, rs.at(i).wallSeconds);
    }
}

TEST(ResultSet, JsonRoundTripsRowsIncludingEngineStats)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    RunConfig cfg;
    cfg.arch = ArchKind::Ftb;
    cfg.width = 4;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    cfg.ftqEntriesOverride = 8;
    ResultSet rs = driver.run(SweepDriver::grid({"vpr"}, {cfg}));

    ResultSet back = ResultSet::fromJson(rs.toJson());
    ASSERT_EQ(back.size(), rs.size());
    EXPECT_EQ(back.wallSeconds(), rs.wallSeconds());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(back.at(i).bench, rs.at(i).bench);
        EXPECT_EQ(back.at(i).cfg, rs.at(i).cfg);
        EXPECT_EQ(back.at(i).stats, rs.at(i).stats);
        EXPECT_EQ(back.at(i).wallSeconds, rs.at(i).wallSeconds);
    }
}

/**
 * rowJson() is the daemon's streaming unit; the regression that
 * matters is that concatenating the per-row documents back into the
 * envelope reproduces the exact ResultSet JSON semantics.
 */
TEST(ResultSet, RowJsonConcatenationParsesIdenticallyToToJson)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    RunConfig cfg;
    cfg.arch = ArchKind::Stream;
    cfg.width = 8;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    RunConfig cfg2 = cfg;
    cfg2.arch = ArchKind::Ev8;
    cfg2.width = 4;
    ResultSet rs =
        driver.run(SweepDriver::grid({"gzip"}, {cfg, cfg2}));
    ASSERT_EQ(rs.size(), 2u);

    // The member and the free function agree, and each row is a
    // single line (an NDJSON frame can embed it verbatim).
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs.rowJson(i), rowJson(rs.at(i)));
        EXPECT_EQ(rs.rowJson(i).find('\n'), std::string::npos);
    }

    std::string manual = "{\"wall_seconds\": " +
                         jsonNumber(rs.wallSeconds()) +
                         ", \"rows\": [";
    for (std::size_t i = 0; i < rs.size(); ++i)
        manual += (i ? "," : "") + rs.rowJson(i);
    manual += "]}";

    ResultSet a = ResultSet::fromJson(manual);
    ResultSet b = ResultSet::fromJson(rs.toJson());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.wallSeconds(), b.wallSeconds());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).bench, b.at(i).bench);
        EXPECT_EQ(a.at(i).cfg, b.at(i).cfg);
        EXPECT_EQ(a.at(i).stats, b.at(i).stats);
        EXPECT_EQ(a.at(i).wallSeconds, b.at(i).wallSeconds);
    }
}

TEST(ResultSet, JsonRejectsMalformedInput)
{
    EXPECT_THROW(ResultSet::fromJson("{"), std::runtime_error);
    EXPECT_THROW(ResultSet::fromJson("{\"rows\": []}"),
                 std::runtime_error); // missing wall_seconds
    EXPECT_THROW(ResultSet::fromCsv(""), std::runtime_error);
    EXPECT_THROW(ResultSet::fromCsv("bench,arch\n"),
                 std::runtime_error); // missing columns
}

TEST(ResultSet, CsvRejectsCorruptNumericCells)
{
    ResultSet rs;
    ResultRow r;
    r.bench = "gzip";
    rs.add(r);
    std::string csv = rs.toCsv();

    // Corrupt the cycles cell of the data row.
    std::string bad = csv;
    std::size_t pos = bad.find("gzip,");
    ASSERT_NE(pos, std::string::npos);
    // cycles is the 7th column; splice garbage into it.
    std::string row = bad.substr(pos);
    std::size_t comma = 0;
    for (int c = 0; c < 6; ++c)
        comma = row.find(',', comma) + 1;
    bad = bad.substr(0, pos) + row.substr(0, comma) + "12x4" +
          row.substr(row.find(',', comma));
    EXPECT_THROW(ResultSet::fromCsv(bad), std::runtime_error);

    // The unmodified document still parses.
    EXPECT_EQ(ResultSet::fromCsv(csv).size(), 1u);
}

TEST(ResultSet, AggregationHelpers)
{
    ResultSet rs;
    for (double ipc : {1.0, 2.0, 4.0}) {
        ResultRow r;
        r.bench = "gzip";
        r.stats.cycles = 1000;
        r.stats.committedInsts =
            static_cast<InstCount>(1000 * ipc);
        rs.add(r);
    }
    auto all = [](const ResultRow &) { return true; };
    auto ipc = [](const ResultRow &r) { return r.stats.ipc(); };
    EXPECT_DOUBLE_EQ(rs.mean(MeanKind::Arithmetic, all, ipc),
                     (1.0 + 2.0 + 4.0) / 3.0);
    EXPECT_DOUBLE_EQ(rs.mean(MeanKind::Harmonic, all, ipc),
                     3.0 / (1.0 + 0.5 + 0.25));
    EXPECT_DOUBLE_EQ(rs.mean(MeanKind::Geometric, all, ipc), 2.0);
    EXPECT_EQ(rs.where([](const ResultRow &r) {
                    return r.stats.committedInsts > 1500;
                }).size(),
              2u);
}

TEST(Cli, ParsesListsAndResolvesBenches)
{
    EXPECT_EQ(CliParser::parseUnsignedList("2,4,8"),
              (std::vector<unsigned>{2, 4, 8}));
    EXPECT_THROW(CliParser::parseUnsignedList("2,x"),
                 std::invalid_argument);
    EXPECT_EQ(resolveBenches({}), suiteNames());
    EXPECT_EQ(resolveBenches({"all"}), suiteNames());
    EXPECT_EQ(resolveBenches({"gzip", "gcc"}),
              (std::vector<std::string>{"gzip", "gcc"}));
    EXPECT_THROW(resolveBenches({"nope"}), std::invalid_argument);
}

TEST(Cli, WidthsOutsideOneToSixteenAreRejected)
{
    EXPECT_EQ(CliParser::parseWidthList("1,16"),
              (std::vector<unsigned>{1, 16}));
    EXPECT_THROW(CliParser::parseWidthList("0"), std::invalid_argument);
    EXPECT_THROW(CliParser::parseWidthList("8,17"),
                 std::invalid_argument);
    EXPECT_NO_THROW(checkPipeWidth(FetchBundle::kCapacity));
    EXPECT_THROW(checkPipeWidth(FetchBundle::kCapacity + 1),
                 std::invalid_argument);
}

namespace
{

/** Parse @p args the way fig8_ipc and sfetchsim do. */
void
parseSweepArgs(const char *prog, std::vector<std::string> args)
{
    CliOptions opts;
    CliParser cli(prog, "width check");
    cli.addStandard(&opts, CliParser::kSweep | CliParser::kWidths);
    args.insert(args.begin(), prog);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    cli.parseOrExit(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(CliDeathTest, BadWidthExitsTwoWithAMessage)
{
    // Out-of-range widths are usage errors, never a silent default
    // width (0) or an uncaught exception (17).
    EXPECT_EXIT(parseSweepArgs("fig8_ipc", {"--widths", "0"}),
                ::testing::ExitedWithCode(2),
                "fig8_ipc: --widths: width 0 is outside the "
                "supported range 1..16");
    EXPECT_EXIT(parseSweepArgs("sfetchsim", {"--widths", "4,17"}),
                ::testing::ExitedWithCode(2),
                "sfetchsim: --widths: width 17 is outside the "
                "supported range 1..16");
}

TEST(Cli, WarmupDefaultsToFifthOfInsts)
{
    CliOptions opts;
    EXPECT_EQ(opts.warmupFor(1'000'000), 200'000u);
    opts.warmupSet = true;
    opts.warmupInsts = 123;
    EXPECT_EQ(opts.warmupFor(1'000'000), 123u);
}
