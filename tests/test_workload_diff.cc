/**
 * @file
 * Differential validation of the workload scenario subsystem:
 *
 *  - the workload registry's content and diagnostics (including
 *    negative and fuzz-style coverage of the --bench spec grammar,
 *    mirroring tests/test_config.cc for --arch);
 *  - trace record/replay: for every registered workload family and
 *    one suite preset, a recorded control trace replayed through
 *    each registered fetch engine must produce bit-identical
 *    SimStats to live generation (the acceptance criterion of the
 *    trace layer), plus binary-format round-trip and corruption
 *    handling;
 *  - cross-engine invariants every scenario must satisfy (an
 *    optimized-layout stream front end beats predictionless
 *    next-line fetch);
 *  - the workload-cache canonical-key regression: specs differing
 *    only in workload parameters must never alias one entry.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "sim/engine_registry.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/rng.hh"
#include "workload/trace_io.hh"
#include "workload/workload_registry.hh"

using namespace sfetch;

namespace
{

/** Small but non-trivial run: covers warmup, phases, and misses. */
SimConfig
smallCfg(const std::string &arch)
{
    SimConfig cfg(arch);
    cfg.width = 8;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    return cfg;
}

/** One representative bench spec per registered family + a preset. */
std::vector<std::string>
diffBenches()
{
    std::vector<std::string> benches =
        WorkloadRegistry::instance().tokens();
    benches.push_back("gzip");
    return benches;
}

} // namespace

// ---- registry content ----

TEST(WorkloadRegistry, FiveFamiliesWithDocumentedParams)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    EXPECT_EQ(reg.size(), 5u);
    EXPECT_EQ(reg.tokens(),
              (std::vector<std::string>{"synth", "loops", "server",
                                        "thrash", "phased"}));
    for (const std::string &token : reg.tokens()) {
        const WorkloadDescriptor &d = reg.find(token);
        EXPECT_FALSE(d.displayName.empty()) << token;
        EXPECT_FALSE(d.summary.empty()) << token;
        EXPECT_FALSE(d.params.empty()) << token;
        EXPECT_NE(d.params.find("seed"), nullptr) << token;
        for (const ParamDecl &decl : d.params.decls())
            EXPECT_FALSE(decl.doc.empty()) << token << ":" << decl.key;
    }

    // The --list-benches text names every family, every parameter,
    // and the suite presets.
    std::string listing = reg.listText();
    for (const std::string &token : reg.tokens()) {
        EXPECT_NE(listing.find(token), std::string::npos);
        for (const ParamDecl &decl : reg.find(token).params.decls())
            EXPECT_NE(listing.find(decl.key), std::string::npos)
                << token << ":" << decl.key;
    }
    for (const std::string &name : suiteNames())
        EXPECT_NE(listing.find(name), std::string::npos) << name;
}

TEST(WorkloadRegistry, AliasesResolveToCanonicalDescriptors)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    EXPECT_EQ(reg.find("loop_nest").token, "loops");
    EXPECT_EQ(reg.find("calls").token, "server");
    EXPECT_EQ(reg.find("icache").token, "thrash");
    EXPECT_EQ(reg.find("multiphase").token, "phased");
    EXPECT_EQ(reg.find("generic").token, "synth");
}

TEST(WorkloadRegistry, UnknownTokenErrorListsBothNamespaces)
{
    try {
        WorkloadRegistry::instance().find("quake");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("quake"), std::string::npos);
        for (const char *token :
             {"synth", "loops", "server", "thrash", "phased"})
            EXPECT_NE(msg.find(token), std::string::npos) << token;
        // Suite presets are the other half of the bench namespace.
        EXPECT_NE(msg.find("gzip"), std::string::npos);
    }
}

// ---- --bench spec grammar: canonicalization and diagnostics ----

TEST(BenchSpec, CanonicalizationNormalizesOrderAndAliases)
{
    EXPECT_EQ(canonicalBenchSpec("gzip"), "gzip");
    EXPECT_EQ(canonicalBenchSpec("loops"), "loops");
    EXPECT_EQ(canonicalBenchSpec("loop_nest:trips=32,depth=4"),
              "loops:depth=4,trips=32");
    // Explicitly setting a default value drops it.
    EXPECT_EQ(canonicalBenchSpec("loops:trips=16"), "loops");
    // Round trip: canonical text is a fixed point.
    std::string canon =
        canonicalBenchSpec("server:handlers=32,seed=9");
    EXPECT_EQ(canonicalBenchSpec(canon), canon);
}

TEST(BenchSpec, ListSplitsOnFamilyBoundaries)
{
    std::vector<std::string> specs =
        parseBenchSpecList("gzip,loops:depth=2,trips=8,server");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0], "gzip");
    EXPECT_EQ(specs[1], "loops:depth=2,trips=8");
    EXPECT_EQ(specs[2], "server");
    EXPECT_EQ(parseBenchSpecList("all"),
              std::vector<std::string>{"all"});
    EXPECT_THROW(parseBenchSpecList(""), std::invalid_argument);
}

TEST(BenchSpec, BadSpecsThrowWithDiagnostics)
{
    // Unknown family.
    EXPECT_THROW(canonicalBenchSpec("nope"), std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("nope:seed=1"),
                 std::invalid_argument);
    // Suite presets take no parameter list; the error points at the
    // synth:preset= spelling instead of claiming gzip is unknown.
    try {
        canonicalBenchSpec("gzip:seed=2");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("takes no parameters"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("synth:preset=gzip,seed=2"),
                  std::string::npos)
            << msg;
    }
    // Unknown key, with the known keys in the message.
    try {
        canonicalBenchSpec("loops:depht=3");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("depht"), std::string::npos);
        EXPECT_NE(msg.find("depth"), std::string::npos);
        EXPECT_NE(msg.find("trips"), std::string::npos);
    }
    // Out-of-range and unparseable values.
    EXPECT_THROW(canonicalBenchSpec("loops:depth=0"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:trips=1"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:trips=abc"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:trips"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("loops:=4"),
                 std::invalid_argument);
    // Family-specific constraints fail at parse time: unknown synth
    // presets and assigned values below a knob's floor (the declared
    // default is the -1 inherit sentinel, so the ParamSpec min alone
    // cannot catch these).
    EXPECT_THROW(canonicalBenchSpec("synth:preset=quake"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("synth:mean_trips=1"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("synth:leaf_funcs=0"),
                 std::invalid_argument);
    EXPECT_THROW(canonicalBenchSpec("synth:ws_kb=0"),
                 std::invalid_argument);
}

TEST(BenchSpec, SynthPresetOverridesApplyEvenAtBaseValues)
{
    // `preset=gzip,seed=1` must run gzip's program with seed 1, not
    // silently keep gzip's own seed (101): knob defaults are an
    // inherit sentinel precisely so explicit assignments survive
    // canonicalization.
    EXPECT_EQ(canonicalBenchSpec("synth:preset=gzip,seed=1"),
              "synth:preset=gzip,seed=1");

    auto shape = [](const SyntheticWorkload &w) {
        std::vector<std::uint32_t> sizes;
        for (const BasicBlock &blk : w.program.blocks())
            sizes.push_back(blk.numInsts);
        return sizes;
    };
    SyntheticWorkload base = buildBenchWorkload("gzip");
    SyntheticWorkload reseeded =
        buildBenchWorkload("synth:preset=gzip,seed=1");
    SyntheticWorkload inherited =
        buildBenchWorkload("synth:preset=gzip");
    // Inheriting the preset reproduces gzip's program exactly; the
    // seed-1 override must generate a different one.
    EXPECT_EQ(shape(inherited), shape(base));
    EXPECT_NE(shape(reseeded), shape(base));
    // A non-seed knob assigned its base value survives
    // canonicalization too (it would previously vanish).
    EXPECT_EQ(canonicalBenchSpec("synth:preset=gzip,mean_trips=10"),
              "synth:preset=gzip,mean_trips=10");
}

TEST(BenchSpec, FuzzedSpecsEitherCanonicalizeOrThrow)
{
    // Pseudo-random spec strings assembled from plausible fragments:
    // every outcome must be a clean canonicalization (with a stable
    // round trip) or std::invalid_argument — never a crash or an
    // unexpected exception type.
    const char *frags[] = {
        "loops", "server", "gzip", "bogus", "depth", "trips",
        "seed", "=", ":", ",", "4", "0", "-3", "abc", "all",
        "synth", "preset", "99999999999999999999", "=:", "::",
    };
    constexpr std::size_t kNumFrags =
        sizeof(frags) / sizeof(frags[0]);
    Pcg32 rng(mix64(0xf022edULL), 1);
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string spec;
        unsigned pieces = 1 + rng.nextBounded(5);
        for (unsigned p = 0; p < pieces; ++p)
            spec += frags[rng.nextBounded(
                static_cast<std::uint32_t>(kNumFrags))];
        try {
            std::string canon = canonicalBenchSpec(spec);
            EXPECT_EQ(canonicalBenchSpec(canon), canon)
                << "unstable canonicalization of '" << spec << "'";
            ++accepted;
        } catch (const std::invalid_argument &) {
            // Expected for garbage input.
        }
    }
    // The fragment pool contains whole valid specs, so some inputs
    // must get through — otherwise the fuzz is vacuous.
    EXPECT_GT(accepted, 0);
}

// ---- trace binary format ----

TEST(TraceIo, EncodeDecodeRoundTrip)
{
    RecordedTrace t;
    t.bench = "loops:depth=2";
    t.seed = 0x1234567890abcdefULL;
    for (BlockId b = 0; b < 300; ++b)
        t.records.push_back(ControlRecord{b, BlockId(b * 7 + 130)});

    RecordedTrace back = decodeTrace(encodeTrace(t));
    EXPECT_EQ(back.bench, t.bench);
    EXPECT_EQ(back.seed, t.seed);
    ASSERT_EQ(back.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        EXPECT_EQ(back.records[i].block, t.records[i].block);
        EXPECT_EQ(back.records[i].next, t.records[i].next);
    }
}

TEST(TraceIo, FileRoundTripAndIoErrors)
{
    RecordedTrace t;
    t.bench = "gzip";
    t.seed = 7;
    t.records = {ControlRecord{0, 1}, ControlRecord{1, 0}};

    std::string path = ::testing::TempDir() + "sfetch_trace_test.sftr";
    TraceWriter(path).write(t);
    RecordedTrace back = TraceReader(path).read();
    EXPECT_EQ(back.bench, t.bench);
    EXPECT_EQ(back.records.size(), 2u);
    std::remove(path.c_str());

    EXPECT_THROW(TraceReader("/nonexistent/dir/x.sftr").read(),
                 std::runtime_error);
    EXPECT_THROW(
        TraceWriter("/nonexistent/dir/x.sftr").write(t),
        std::runtime_error);
}

TEST(TraceIo, RejectsCorruptHeadersAndTruncation)
{
    RecordedTrace t;
    t.bench = "gzip";
    t.seed = 7;
    t.records = {ControlRecord{0, 1}, ControlRecord{1, 0}};
    std::string bytes = encodeTrace(t);

    // Bad magic.
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(decodeTrace(bad), std::runtime_error);

    // Unsupported version.
    bad = bytes;
    bad[4] = char(kTraceFormatVersion + 1);
    EXPECT_THROW(decodeTrace(bad), std::runtime_error);

    // Truncation anywhere in the payload.
    for (std::size_t cut : {std::size_t(2), std::size_t(10),
                            bytes.size() - 1})
        EXPECT_THROW(decodeTrace(bytes.substr(0, cut)),
                     std::runtime_error)
            << "cut at " << cut;

    // A record count pointing past the payload.
    bad = bytes;
    std::size_t count_off = 4 + 4 + 8 + 4 + t.bench.size();
    bad[count_off] = char(0x7f);
    EXPECT_THROW(decodeTrace(bad), std::runtime_error);
}

// ---- the differential suite: replay == live on every engine ----

TEST(WorkloadDiff, ReplayIsBitIdenticalOnEveryFamilyAndEngine)
{
    const std::vector<std::string> engines =
        EngineRegistry::instance().tokens();

    for (const std::string &bench : diffBenches()) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        RecordedTrace trace =
            recordBenchTrace(work, 20'000, 4'000);
        EXPECT_EQ(trace.bench, work.name());

        // The same capture must also survive the binary format.
        RecordedTrace decoded = decodeTrace(encodeTrace(trace));

        for (const std::string &arch : engines) {
            SimConfig cfg = smallCfg(arch);
            SimStats live = runOn(work, cfg);
            SimStats replayed = runOn(work, cfg, &decoded);
            EXPECT_EQ(live, replayed)
                << bench << " x " << arch
                << ": replay diverged from live generation";
        }
    }
}

TEST(WorkloadDiff, BatchedReplayIsBitIdenticalEverywhere)
{
    // The batched replay core (bulk oracle verify, run-drained
    // commit/dispatch, SIMD meta scans) against the scalar reference
    // loop: every family x every engine x narrow and full pipe
    // widths, on both private windows and a shared arena. Any
    // divergence in any SimStats field fails; this is the
    // pipeline-level guarantee on top of test_simd's primitives.
    const std::vector<std::string> engines =
        EngineRegistry::instance().tokens();

    RunTuning scalar_mode;
    scalar_mode.batchedReplay = false;
    RunTuning batched_mode;
    batched_mode.batchedReplay = true;

    for (const std::string &bench : diffBenches()) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        auto arena = work.arena(
            true, 20'000 + 4'000 + kFetchAheadMargin);

        for (const std::string &arch : engines) {
            for (unsigned width : {4u, 8u}) {
                SimConfig cfg = smallCfg(arch);
                cfg.width = width;
                SimStats scalar =
                    runOn(work, cfg, nullptr, nullptr, scalar_mode);
                SimStats batched =
                    runOn(work, cfg, nullptr, nullptr, batched_mode);
                EXPECT_EQ(scalar, batched)
                    << bench << " x " << arch << " w" << width
                    << ": batched replay diverged (window)";

                SimStats scalar_ar = runOn(work, cfg, nullptr,
                                           arena.get(), scalar_mode);
                SimStats batched_ar = runOn(work, cfg, nullptr,
                                            arena.get(), batched_mode);
                EXPECT_EQ(scalar_ar, batched_ar)
                    << bench << " x " << arch << " w" << width
                    << ": batched replay diverged (arena)";
                EXPECT_EQ(scalar, scalar_ar)
                    << bench << " x " << arch << " w" << width
                    << ": arena replay diverged from window";
            }
        }
    }
}

namespace
{

/**
 * runOn()'s machine built by hand, so the private window's refills
 * can be counted; no shared arena, so the processor decodes the
 * committed path (live, or from @p replay) into its window.
 */
SimStats
runWindowed(const PlacedWorkload &work, const SimConfig &cfg,
            const RecordedTrace *replay, std::uint64_t *refills)
{
    const CodeImage &image = work.image(cfg.optimizedLayout);
    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);
    auto engine = cfg.makeEngine(image, &mem);
    ProcessorConfig pc;
    pc.width = cfg.width;
    Processor proc(pc, engine.get(), image, work.model(), &mem,
                   kRefSeed, replay);
    SimStats st = proc.run(cfg.insts, cfg.warmupInsts);
    *refills = proc.windowRefills();
    return st;
}

} // namespace

TEST(WorkloadDiff, WindowReplayAcrossRefillsIsBitIdentical)
{
    // Runs long enough to slide the private window 20+ times: every
    // refill must keep each in-flight index and unconsumed data
    // address valid, so the rows match the same point replayed from
    // a shared full arena and from the scalar reference loop — on
    // every engine, at narrow and full width, live and SFTR-fed.
    RunTuning scalar_mode;
    scalar_mode.batchedReplay = false;
    const InstCount insts = 20 * OracleArena::kWindowInsts;
    const InstCount warmup = 4'000;

    auto check = [&](const PlacedWorkload &work, const SimConfig &cfg,
                     const OracleArena &arena,
                     const RecordedTrace *replay,
                     const std::string &what) {
        std::uint64_t refills = 0;
        SimStats windowed = runWindowed(work, cfg, replay, &refills);
        EXPECT_GE(refills, 20u) << what;
        EXPECT_EQ(windowed, runOn(work, cfg, nullptr, &arena))
            << what << ": window diverged from the shared arena";
        EXPECT_EQ(windowed,
                  runOn(work, cfg, replay, nullptr, scalar_mode))
            << what << ": window diverged from the scalar reference";
    };

    for (const char *bench : {"thrash", "phased"}) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        auto arena =
            work.arena(true, insts + warmup + kFetchAheadMargin);
        for (const std::string &arch :
             EngineRegistry::instance().tokens()) {
            for (unsigned width : {2u, 8u}) {
                SimConfig cfg(arch);
                cfg.width = width;
                cfg.insts = insts;
                cfg.warmupInsts = warmup;
                check(work, cfg, *arena, nullptr,
                      std::string(bench) + " x " + arch + " w" +
                          std::to_string(width));
            }
        }
    }

    const PlacedWorkload &work = WorkloadCache::instance().get("phased");
    auto arena = work.arena(true, insts + warmup + kFetchAheadMargin);
    RecordedTrace trace = recordBenchTrace(work, insts, warmup);
    SimConfig cfg("stream");
    cfg.insts = insts;
    cfg.warmupInsts = warmup;
    check(work, cfg, *arena, &trace, "phased x stream (SFTR replay)");
}

TEST(WorkloadDiff, ExactInstStopCommitsExactlyTheBudget)
{
    // exactInstStop caps commit at the instruction budget: where the
    // default run overshoots by up to width-1 (the whole final
    // commit cycle retires), the exact stop reports committedInsts
    // equal to the budget — on every engine, so the bench's Minsts/s
    // denominators are comparable across rows.
    RunTuning exact;
    exact.exactInstStop = true;
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");

    for (const std::string &arch :
         EngineRegistry::instance().tokens()) {
        SimConfig cfg = smallCfg(arch);
        SimStats loose = runOn(work, cfg);
        SimStats tight = runOn(work, cfg, nullptr, nullptr, exact);
        EXPECT_GE(loose.committedInsts, cfg.insts) << arch;
        EXPECT_LT(loose.committedInsts, cfg.insts + cfg.width)
            << arch;
        EXPECT_EQ(tight.committedInsts, cfg.insts) << arch;

        // The exact stop is a different stopping rule, not a
        // different simulator: scalar and batched cores must still
        // agree bit for bit under it.
        RunTuning exact_scalar = exact;
        exact_scalar.batchedReplay = false;
        SimStats tight_scalar =
            runOn(work, cfg, nullptr, nullptr, exact_scalar);
        EXPECT_EQ(tight, tight_scalar) << arch;
    }
}

TEST(WorkloadDiff, StreamBeatsNextLineOnEveryFamily)
{
    // The paper's core ordering, demanded of every scenario: a
    // stream front end over the optimized layout must outfetch
    // predictionless next-line fetch.
    for (const std::string &bench : diffBenches()) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        SimStats stream = runOn(work, smallCfg("stream"));
        SimStats seq = runOn(work, smallCfg("seq"));
        EXPECT_GT(stream.ipc(), seq.ipc()) << bench;
        EXPECT_LT(stream.mispredictRate(), seq.mispredictRate())
            << bench;
    }
}

TEST(WorkloadDiff, ReplayPastTheEndOfTheTraceThrows)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("loops");
    RecordedTrace tiny = recordTrace(work.program(), work.model(),
                                     kRefSeed, 200, work.name());
    SimConfig cfg = smallCfg("stream");
    EXPECT_THROW(runOn(work, cfg, &tiny), std::runtime_error);
}

TEST(WorkloadDiff, ReplayOnTheWrongWorkloadThrows)
{
    const PlacedWorkload &loops =
        WorkloadCache::instance().get("loops");
    const PlacedWorkload &server =
        WorkloadCache::instance().get("server");
    RecordedTrace trace = recordBenchTrace(loops, 1'000, 0);
    EXPECT_THROW(runOn(server, smallCfg("stream"), &trace),
                 std::invalid_argument);
}

// ---- workload cache canonical keys (aliasing regression) ----

TEST(WorkloadCacheKeys, ParamsDistinguishAndCanonicalFormsShare)
{
    WorkloadCache &cache = WorkloadCache::instance();

    // Same parameters, different spellings: one entry.
    const PlacedWorkload &a = cache.get("loops:depth=2,trips=8");
    const PlacedWorkload &b = cache.get("loops:trips=8,depth=2");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.name(), "loops:depth=2,trips=8");

    // A default-valued parameter canonicalizes away.
    const PlacedWorkload &c = cache.get("loops");
    const PlacedWorkload &d = cache.get("loops:trips=16");
    EXPECT_EQ(&c, &d);

    // Different workload parameters must never alias.
    const PlacedWorkload &e = cache.get("loops:trips=8");
    EXPECT_NE(&c, &e);
    EXPECT_NE(&a, &e);
    EXPECT_NE(a.program().numBlocks(), 0u);

    // And the generated programs really differ.
    SimStats se = runOn(c, smallCfg("stream"));
    SimStats sf = runOn(e, smallCfg("stream"));
    EXPECT_NE(se, sf);
}
