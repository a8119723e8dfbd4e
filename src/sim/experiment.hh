/**
 * @file
 * Experiment harness: builds the machine configurations of Table 2,
 * instantiates any registered fetch architecture over any suite
 * workload (base or optimized layout, any pipe width), runs the
 * simulation, and aggregates suite-level results. All bench binaries
 * and examples go through this API.
 *
 * The engine surface lives in sim/config.hh (SimConfig over the
 * EngineRegistry). The ArchKind enum and RunConfig struct below are
 * the legacy closed API, kept as a thin conversion shim: they cover
 * exactly the paper's four architectures and the historical ablation
 * flags, and translate 1:1 into SimConfig parameter sets.
 */

#ifndef SFETCH_SIM_EXPERIMENT_HH
#define SFETCH_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "layout/oracle_arena.hh"
#include "pipeline/processor.hh"
#include "sim/config.hh"
#include "workload/profile.hh"
#include "workload/suite.hh"
#include "workload/trace_io.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

/**
 * Committed-path margin beyond (insts + warmup) that any pre-decoded
 * or recorded oracle must cover: the oracle is consumed once per
 * correct-path *fetched* instruction, which runs ahead of commit by
 * at most the fetch buffer, the ROB, and one instruction of
 * lookahead. 4096 covers the largest configuration with an order of
 * magnitude to spare.
 */
constexpr InstCount kFetchAheadMargin = 4096;

/**
 * The four fetch architectures of the paper's evaluation (legacy
 * shim; registry tokens are the open-ended replacement).
 */
enum class ArchKind
{
    Ev8,     //!< EV8 + 2bcgskew
    Ftb,     //!< FTB + perceptron
    Stream,  //!< the paper's stream fetch architecture
    Trace,   //!< trace cache + next trace predictor
};

/** Display name matching the paper's figures (from the registry). */
std::string archName(ArchKind kind);

/** Stable machine-readable token: "ev8", "ftb", "stream", "trace". */
std::string archToken(ArchKind kind);

/** Inverse of archToken(); accepts the registry aliases. Only the
 * four paper architectures have an ArchKind; use the registry for
 * anything else. */
ArchKind parseArch(const std::string &token);

/** All four paper architectures in plotting order. */
const std::vector<ArchKind> &allArchs();

/**
 * One fully-specified experiment, legacy form. The engine-specific
 * fields correspond to engine parameters: lineBytesOverride ->
 * `line`, ftqEntriesOverride -> `ftq`, streamSingleTable ->
 * `stream:single_table`, streamNoHysteresis ->
 * `stream:no_hysteresis`, tracePartialMatching ->
 * `trace:partial_match`.
 */
struct RunConfig
{
    ArchKind arch = ArchKind::Stream;
    unsigned width = 8;          //!< pipe width: 2, 4, or 8
    bool optimizedLayout = true; //!< spike-style layout vs baseline
    InstCount insts = 2'000'000; //!< measured instructions
    InstCount warmupInsts = 300'000;
    /** Overridable i-cache line size; 0 = 4x width (Table 2). */
    unsigned lineBytesOverride = 0;
    /** Overridable FTQ depth; 0 = default (4). */
    std::size_t ftqEntriesOverride = 0;
    /** Stream-predictor ablation: disable the path-indexed table. */
    bool streamSingleTable = false;
    /** Stream-predictor ablation: 1-bit hysteresis-free counters. */
    bool streamNoHysteresis = false;
    /** Trace-cache ablation: enable partial matching (footnote 3). */
    bool tracePartialMatching = false;
};

bool operator==(const RunConfig &a, const RunConfig &b);
inline bool
operator!=(const RunConfig &a, const RunConfig &b)
{
    return !(a == b);
}

/**
 * Translate a legacy RunConfig into the equivalent SimConfig.
 * Guaranteed to produce bit-identical SimStats (asserted by
 * tests/test_config.cc).
 */
SimConfig toSimConfig(const RunConfig &cfg);

/**
 * A reusable placed workload: program + behaviour + both layouts.
 * Building one is moderately expensive (profiling run), so it is
 * built once per benchmark — normally via WorkloadCache — and shared
 * read-only across runs. All accessors are const; concurrent runs on
 * one PlacedWorkload are safe.
 */
class PlacedWorkload
{
  public:
    /**
     * @param bench_spec A suite preset name (gzip, ...) or a
     * workload-registry spec `family[:key=v,...]`; see
     * canonicalBenchSpec(). name() is the canonical form.
     */
    explicit PlacedWorkload(const std::string &bench_spec);

    const std::string &name() const { return name_; }
    const Program &program() const { return work_.program; }
    const WorkloadModel &model() const { return work_.model; }
    /** Train-input edge profile that drove the optimized layout. */
    const EdgeProfile &profile() const { return *profile_; }
    const CodeImage &baseImage() const { return *base_; }
    const CodeImage &optImage() const { return *opt_; }

    const CodeImage &
    image(bool optimized) const
    {
        return optimized ? *opt_ : *base_;
    }

    /**
     * Shared pre-decoded committed path for @p total_insts
     * instructions (measured + warmup + kFetchAheadMargin) on the
     * given layout, decoded with the `ref` seed every runOn() uses.
     * Built lazily, once, and cached per layout: concurrent callers
     * and later sweeps share one immutable arena. A request longer
     * than the cached arena rebuilds (the longer arena replaces the
     * shorter; outstanding references stay valid through the
     * shared_ptr). Thread-safe.
     */
    std::shared_ptr<const OracleArena>
    arena(bool optimized, InstCount total_insts) const;

    /**
     * The cached arena for the layout when one exists and already
     * covers @p total_insts; null otherwise (never builds).
     */
    std::shared_ptr<const OracleArena>
    cachedArena(bool optimized, InstCount total_insts) const;

    /**
     * Bytes held by this workload's cached per-layout arenas — the
     * dominant, budgetable share of its footprint (the ~28 MB/arena
     * formula; program + images are a few hundred KB). Feeds
     * WorkloadCache::bytesResident() and sfetchd's memory governor.
     */
    std::size_t arenaBytesResident() const;

    /**
     * Drop the cached arena references. Outstanding shared_ptrs
     * (e.g. a sweep currently replaying) keep their arenas alive and
     * valid; the memory is reclaimed when the last reference dies,
     * and later arena() calls decode afresh.
     */
    void dropArenas() const;

    /** Bytes of one layout's cached arena (0 when not decoded). */
    std::size_t arenaBytes(bool optimized) const;

    /**
     * Process-wide LRU stamp of the layout's cached arena: when it
     * was last decoded or handed out by arena()/cachedArena(). 0 when
     * not decoded. Drives arena-granular eviction
     * (WorkloadCache::evictArenaLru()).
     */
    std::uint64_t arenaLastUse(bool optimized) const;

    /**
     * Drop one layout's cached arena iff this cache slot is its only
     * owner — an arena some replay still holds is left alone.
     * Returns the bytes released (0 when absent or in use). The
     * other layout's arena is untouched: this is the governor's
     * surgical alternative to evicting a whole workload.
     */
    std::size_t evictArena(bool optimized) const;

  private:
    std::string name_;
    SyntheticWorkload work_;
    std::unique_ptr<EdgeProfile> profile_;
    std::unique_ptr<CodeImage> base_;
    std::unique_ptr<CodeImage> opt_;

    /** Lazily-built per-layout committed-path arenas ([0]=base). */
    mutable std::mutex arenaMu_;
    mutable std::shared_ptr<const OracleArena> arenas_[2];
    mutable std::uint64_t arenaUse_[2] = {0, 0}; //!< LRU stamps
};

/** Build the fetch engine for a legacy run (registry-backed). */
std::unique_ptr<FetchEngine> makeEngine(const RunConfig &cfg,
                                        const CodeImage &image,
                                        MemoryHierarchy *mem);

/**
 * Execution knobs for runOn() that are not part of the modelled
 * machine configuration.
 */
struct RunTuning
{
    /**
     * Run the batched replay core (bulk oracle verify, run-drained
     * commit/dispatch, SIMD meta scans). Off = the scalar reference
     * loop. Pure host-side choice: SimStats are bit-identical either
     * way (proven by the golden and differential suites).
     */
    bool batchedReplay = true;
    /**
     * Stop committing exactly at the instruction budget instead of
     * letting the final cycle's full commit overshoot by up to
     * width-1 instructions. committedInsts becomes exact, making
     * Minsts/s denominators comparable across rows; the trimmed
     * instructions commit a cycle later, so this is a (deterministic,
     * equally valid) variant run, not a bit-identical one. Default
     * off: the golden stats pin the overshooting counts.
     */
    bool exactInstStop = false;
};

/**
 * Run one experiment on a prepared workload. When @p replay is
 * non-null the committed path comes from the recorded trace instead
 * of live generation (the trace's bench spec must match the
 * workload; std::invalid_argument otherwise). A trace recorded via
 * recordBenchTrace() with the default seed replays bit-identically
 * to live generation on every engine.
 *
 * When @p arena is non-null the committed path *and* the data
 * address stream are replayed from that shared full arena (which
 * must come from this workload's arena()/cachedArena(), i.e. be
 * decoded with the `ref` seed on the configured layout). Otherwise
 * the processor decodes them, live or from @p replay, into a
 * private bounded window. Both are bit-identical to generation.
 * Mutually exclusive with @p replay. The sweep driver passes an
 * arena automatically when several points share one (workload,
 * layout, run length).
 */
SimStats runOn(const PlacedWorkload &work, const SimConfig &cfg,
               const RecordedTrace *replay = nullptr,
               const OracleArena *arena = nullptr,
               const RunTuning &tuning = RunTuning{});
SimStats runOn(const PlacedWorkload &work, const RunConfig &cfg);

/**
 * Capture the committed control path of @p work for a run of
 * @p insts measured + @p warmup instructions, with enough margin
 * for the processor's fetch-ahead on any engine. @p seed defaults
 * to the `ref` input every runOn() simulation uses.
 */
RecordedTrace recordBenchTrace(const PlacedWorkload &work,
                               InstCount insts, InstCount warmup,
                               std::uint64_t seed = kRefSeed);

/** Convenience: prepare the workload and run. */
SimStats runBenchmark(const std::string &bench_name,
                      const SimConfig &cfg);
SimStats runBenchmark(const std::string &bench_name,
                      const RunConfig &cfg);

} // namespace sfetch

#endif // SFETCH_SIM_EXPERIMENT_HH
