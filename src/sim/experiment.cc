#include "sim/experiment.hh"

#include <atomic>
#include <stdexcept>

#include "layout/layout_opt.hh"

namespace sfetch
{

namespace
{

const EngineDescriptor &
descriptorOf(ArchKind kind)
{
    return EngineRegistry::instance().find(archToken(kind));
}

} // namespace

std::string
archName(ArchKind kind)
{
    return descriptorOf(kind).displayName;
}

std::string
archToken(ArchKind kind)
{
    switch (kind) {
      case ArchKind::Ev8: return "ev8";
      case ArchKind::Ftb: return "ftb";
      case ArchKind::Stream: return "stream";
      case ArchKind::Trace: return "trace";
    }
    return "?";
}

ArchKind
parseArch(const std::string &token)
{
    // Resolve aliases through the registry, then map the canonical
    // token onto the legacy enum.
    const std::string &canon =
        EngineRegistry::instance().find(token).token;
    for (ArchKind kind : allArchs())
        if (archToken(kind) == canon)
            return kind;
    throw std::invalid_argument(
        "engine '" + canon +
        "' has no legacy ArchKind; use SimConfig / registry tokens");
}

bool
operator==(const RunConfig &a, const RunConfig &b)
{
    return a.arch == b.arch && a.width == b.width &&
        a.optimizedLayout == b.optimizedLayout && a.insts == b.insts &&
        a.warmupInsts == b.warmupInsts &&
        a.lineBytesOverride == b.lineBytesOverride &&
        a.ftqEntriesOverride == b.ftqEntriesOverride &&
        a.streamSingleTable == b.streamSingleTable &&
        a.streamNoHysteresis == b.streamNoHysteresis &&
        a.tracePartialMatching == b.tracePartialMatching;
}

const std::vector<ArchKind> &
allArchs()
{
    static const std::vector<ArchKind> kinds = {
        ArchKind::Ev8, ArchKind::Ftb, ArchKind::Stream,
        ArchKind::Trace,
    };
    return kinds;
}

SimConfig
toSimConfig(const RunConfig &cfg)
{
    SimConfig sc(archToken(cfg.arch));
    sc.width = cfg.width;
    sc.optimizedLayout = cfg.optimizedLayout;
    sc.insts = cfg.insts;
    sc.warmupInsts = cfg.warmupInsts;

    ParamSet &p = sc.params();
    if (cfg.lineBytesOverride)
        p.setInt("line", cfg.lineBytesOverride);
    // Engine-specific legacy fields apply only where the engine
    // declares the matching parameter (the old switch ignored them
    // elsewhere).
    if (cfg.ftqEntriesOverride && p.spec().find("ftq"))
        p.setInt("ftq",
                 static_cast<std::int64_t>(cfg.ftqEntriesOverride));
    if (cfg.streamSingleTable && p.spec().find("single_table"))
        p.setBool("single_table", true);
    if (cfg.streamNoHysteresis && p.spec().find("no_hysteresis"))
        p.setBool("no_hysteresis", true);
    if (cfg.tracePartialMatching && p.spec().find("partial_match"))
        p.setBool("partial_match", true);
    return sc;
}

PlacedWorkload::PlacedWorkload(const std::string &bench_spec)
    : name_(canonicalBenchSpec(bench_spec)),
      work_(buildBenchWorkload(name_))
{
    base_ = std::make_unique<CodeImage>(
        work_.program, baselineOrder(work_.program));

    // Profile with the `train`-flavoured input, optimize, and place.
    profile_ = std::make_unique<EdgeProfile>(collectProfile(
        work_.program, work_.model, kTrainSeed, 400'000));
    opt_ = std::make_unique<CodeImage>(
        work_.program, optimizedOrder(work_.program, *profile_));
}

namespace
{

/** Process-wide LRU clock for per-layout arena stamps. */
std::uint64_t
nextArenaUseStamp()
{
    static std::atomic<std::uint64_t> clock{0};
    return ++clock;
}

} // namespace

std::shared_ptr<const OracleArena>
PlacedWorkload::arena(bool optimized, InstCount total_insts) const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    std::shared_ptr<const OracleArena> &slot =
        arenas_[optimized ? 1 : 0];
    if (!slot || slot->size() < total_insts) {
        // The decode is a prefix property: a longer arena serves
        // every shorter request, so only the longest ever built per
        // layout is kept. Holding the lock through the build
        // serializes duplicate work instead of racing it.
        slot = std::make_shared<OracleArena>(
            image(optimized), model(), kRefSeed, total_insts);
    }
    arenaUse_[optimized ? 1 : 0] = nextArenaUseStamp();
    return slot;
}

std::shared_ptr<const OracleArena>
PlacedWorkload::cachedArena(bool optimized,
                            InstCount total_insts) const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    const std::shared_ptr<const OracleArena> &slot =
        arenas_[optimized ? 1 : 0];
    if (slot && slot->size() >= total_insts) {
        arenaUse_[optimized ? 1 : 0] = nextArenaUseStamp();
        return slot;
    }
    return nullptr;
}

std::size_t
PlacedWorkload::arenaBytesResident() const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    std::size_t bytes = 0;
    for (const auto &slot : arenas_)
        if (slot)
            bytes += slot->bytes();
    return bytes;
}

void
PlacedWorkload::dropArenas() const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    arenas_[0].reset();
    arenas_[1].reset();
    arenaUse_[0] = arenaUse_[1] = 0;
}

std::size_t
PlacedWorkload::arenaBytes(bool optimized) const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    const auto &slot = arenas_[optimized ? 1 : 0];
    return slot ? slot->bytes() : 0;
}

std::uint64_t
PlacedWorkload::arenaLastUse(bool optimized) const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    return arenaUse_[optimized ? 1 : 0];
}

std::size_t
PlacedWorkload::evictArena(bool optimized) const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    std::shared_ptr<const OracleArena> &slot =
        arenas_[optimized ? 1 : 0];
    // use_count == 1 means this slot is the arena's only owner; a
    // replay in flight holds its own shared_ptr and is left alone.
    if (!slot || slot.use_count() > 1)
        return 0;
    const std::size_t bytes = slot->bytes();
    slot.reset();
    arenaUse_[optimized ? 1 : 0] = 0;
    return bytes;
}

std::unique_ptr<FetchEngine>
makeEngine(const RunConfig &cfg, const CodeImage &image,
           MemoryHierarchy *mem)
{
    return toSimConfig(cfg).makeEngine(image, mem);
}

SimStats
runOn(const PlacedWorkload &work, const SimConfig &cfg,
      const RecordedTrace *replay, const OracleArena *arena,
      const RunTuning &tuning)
{
    if (replay && replay->bench != work.name())
        throw std::invalid_argument(
            "trace was recorded for '" + replay->bench +
            "', not '" + work.name() + "'");
    if (arena && arena->seed() != kRefSeed)
        throw std::invalid_argument(
            "runOn: the arena was not decoded with the ref seed "
            "this run uses");

    const CodeImage &image = work.image(cfg.optimizedLayout);
    if (arena && arena->image() != &image)
        throw std::invalid_argument(
            "runOn: the arena was decoded from a different "
            "workload or layout than this run simulates");

    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);

    auto engine = cfg.makeEngine(image, &mem);

    ProcessorConfig pc;
    pc.width = cfg.width;
    pc.batchedReplay = tuning.batchedReplay;
    pc.exactInstStop = tuning.exactInstStop;

    // The replayed trace supplies the control path; its seed keeps
    // the (independent) data-address stream aligned with capture.
    Processor proc(pc, engine.get(), image, work.model(), &mem,
                   replay ? replay->seed : kRefSeed, replay, arena);
    return proc.run(cfg.insts, cfg.warmupInsts);
}

RecordedTrace
recordBenchTrace(const PlacedWorkload &work, InstCount insts,
                 InstCount warmup, std::uint64_t seed)
{
    return recordTrace(work.program(), work.model(), seed,
                       insts + warmup + kFetchAheadMargin,
                       work.name());
}

SimStats
runOn(const PlacedWorkload &work, const RunConfig &cfg)
{
    return runOn(work, toSimConfig(cfg));
}

SimStats
runBenchmark(const std::string &bench_name, const SimConfig &cfg)
{
    PlacedWorkload work(bench_name);
    return runOn(work, cfg);
}

SimStats
runBenchmark(const std::string &bench_name, const RunConfig &cfg)
{
    return runBenchmark(bench_name, toSimConfig(cfg));
}

} // namespace sfetch
