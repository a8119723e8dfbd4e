/**
 * @file
 * The fetch engine contract shared by all four front ends (EV8, FTB,
 * stream, trace cache).
 *
 * Engines are *self-directed*: they walk the static CodeImage using
 * their own predictors, exactly like hardware running ahead of
 * resolution, and therefore naturally fetch down wrong paths. The
 * processor model compares the fetched PC stream against the oracle
 * (committed) path, detects divergence, and calls redirect() when the
 * mispredicted branch resolves. Engines never see the oracle.
 *
 * Model conventions:
 *  - Instructions are predecoded in the i-cache: the type and taken
 *    target of direct branches are visible at fetch. Conditional
 *    directions, return targets, and indirect targets must be
 *    predicted.
 *  - When an engine has no target for a branch it must keep fetching
 *    sequentially (never stall waiting for a redirect it cannot know
 *    about); the divergence is caught and repaired by the processor.
 */

#ifndef SFETCH_FETCH_FETCH_ENGINE_HH
#define SFETCH_FETCH_FETCH_ENGINE_HH

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "bpred/ras.hh"
#include "cache/cache.hh"
#include "isa/instruction.hh"
#include "layout/code_image.hh"
#include "util/fixed_ring.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace sfetch
{

/**
 * Per-branch recovery checkpoint: shadow RAS state (Section 3.2 of
 * the paper) plus the speculative global direction history at
 * prediction time, restored exactly on a misprediction.
 */
struct EngineCheckpoint
{
    ReturnAddressStack::Checkpoint ras;
    std::uint64_t hist = 0;
};

/** One instruction produced by a fetch engine. */
struct FetchedInst
{
    Addr pc = kNoAddr;
    /**
     * Recovery token for branches (0 for non-branches): identifies
     * the checkpoint the engine must restore if this branch turns
     * out mispredicted.
     */
    std::uint64_t token = 0;
};

/**
 * One cycle's worth of fetched instructions: a caller-owned,
 * fixed-capacity inline array. The processor hands the same bundle
 * to the engine every cycle, so the simulate-one-cycle path never
 * touches the heap (the former `std::vector<FetchedInst>`
 * out-parameter allocated every call).
 */
class FetchBundle
{
  public:
    /** Widest supported fetch per cycle (2x the paper's max width). */
    static constexpr unsigned kCapacity = 16;

    void clear() { n_ = 0; }
    bool empty() const { return n_ == 0; }
    unsigned size() const { return n_; }

    void
    push_back(const FetchedInst &fi)
    {
        assert(n_ < kCapacity && "FetchBundle overflow: engine "
               "produced more than the supported fetch width");
        insts_[n_++] = fi;
    }

    const FetchedInst &
    operator[](unsigned i) const
    {
        assert(i < n_);
        return insts_[i];
    }

    const FetchedInst *begin() const { return insts_; }
    const FetchedInst *end() const { return insts_ + n_; }

  private:
    FetchedInst insts_[kCapacity];
    unsigned n_ = 0;
};

/**
 * The pipe-width rule, 1..FetchBundle::kCapacity, in one place: the
 * processor, the command-line parsers and sfetchd's submit checks
 * all apply it. Throws std::invalid_argument naming the range.
 */
inline void
checkPipeWidth(unsigned width)
{
    if (width == 0 || width > FetchBundle::kCapacity)
        throw std::invalid_argument(
            "width " + std::to_string(width) +
            " is outside the supported range 1.." +
            std::to_string(FetchBundle::kCapacity));
}

/** Resolution information passed to redirect(). */
struct ResolvedBranch
{
    Addr pc = kNoAddr;          //!< the mispredicted branch
    BranchType type = BranchType::None;
    bool taken = false;         //!< actual direction
    Addr target = kNoAddr;      //!< actual successor PC
    std::uint64_t token = 0;    //!< engine token of the branch
};

/** Commit-time information about a retired branch. */
struct CommittedBranch
{
    Addr pc = kNoAddr;
    BranchType type = BranchType::None;
    bool taken = false;
    Addr target = kNoAddr;      //!< actual successor PC
};

/** Common interface of all front ends. */
class FetchEngine
{
  public:
    virtual ~FetchEngine() = default;

    /**
     * Run one fetch cycle: append up to @p max_insts instructions to
     * @p out. May produce fewer (or none) on i-cache misses,
     * predictor stalls, or taken-branch cycle breaks. The caller
     * owns (and clears) the bundle; @p max_insts never exceeds
     * FetchBundle::kCapacity minus the bundle's current size.
     */
    virtual void fetchCycle(Cycle now, unsigned max_insts,
                            FetchBundle &out) = 0;

    /**
     * A branch fetched earlier was mispredicted and has resolved:
     * squash all younger state, repair histories, and resume at
     * @c rb.target.
     */
    virtual void redirect(const ResolvedBranch &rb) = 0;

    /** Train commit-side structures with a retired branch. */
    virtual void trainCommit(const CommittedBranch &cb) = 0;

    /** Reset to a pristine state fetching from @p start. */
    virtual void reset(Addr start) = 0;

    /** Display name. */
    virtual std::string name() const = 0;

    /** Engine-internal statistics. */
    virtual StatSet stats() const { return StatSet{}; }
};

/**
 * Fetch target queue entry: a request for a run of sequential
 * instructions, updated in place as the i-cache drains it (the
 * paper's "fetch request update mechanism", Fig. 6).
 */
struct FetchRequest
{
    Addr start = kNoAddr;
    std::uint32_t lenInsts = 0;
    std::uint64_t token = 0;
    /**
     * True when the request length is a real prediction; false for
     * sequential fall-back requests (run until something redirects).
     */
    bool bounded = true;
};

/**
 * Fixed-capacity FIFO of fetch requests, backed by a FixedRing: the
 * storage is allocated once at construction, so the per-cycle
 * predict/drain traffic never allocates.
 */
class FetchTargetQueue
{
  public:
    explicit FetchTargetQueue(std::size_t capacity = 4)
        : queue_(capacity)
    {}

    bool full() const { return queue_.full(); }
    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }
    std::size_t capacity() const { return queue_.capacity(); }

    /**
     * Enqueue @p req. The capacity is enforced here, not by caller
     * convention: pushing into a full queue asserts in debug builds
     * and drops the request (returning false) in release builds.
     */
    bool
    push(const FetchRequest &req)
    {
        assert(!full() &&
               "FetchTargetQueue overflow: check full() first");
        if (full())
            return false;
        queue_.push_back(req);
        return true;
    }

    FetchRequest &front() { return queue_.front(); }

    void pop() { queue_.pop_front(); }

    void clear() { queue_.clear(); }

  private:
    FixedRing<FetchRequest> queue_;
};

/**
 * Single-ported wide-line i-cache reader: models one line access per
 * cycle with blocking misses.
 */
class ICacheReader
{
  public:
    ICacheReader(MemoryHierarchy *mem, unsigned line_bytes)
        : mem_(mem), lineBytes_(line_bytes)
    {}

    /**
     * Attempt to read instructions starting at @p pc this cycle.
     * @return the number of sequential instructions available from
     * @p pc to the end of its cache line, or 0 while a miss is being
     * serviced.
     */
    unsigned
    available(Cycle now, Addr pc)
    {
        if (now < readyAt_)
            return 0;
        Cycle lat = mem_->accessInst(pc);
        if (lat > mem_->config().l1Latency) {
            // Miss: line arrives after the full latency.
            readyAt_ = now + lat;
            ++misses_;
            return 0;
        }
        Addr line_end = (pc & ~Addr(lineBytes_ - 1)) + lineBytes_;
        return static_cast<unsigned>((line_end - pc) / kInstBytes);
    }

    /**
     * Host-side prefetch of the tag state a future available(@p pc)
     * will probe: callers that know next cycle's fetch address hide
     * the host memory latency of the modelled i-cache lookup. Pure
     * hint; no modelled state changes.
     */
    void prefetch(Addr pc) const { mem_->prefetchInst(pc); }

    /**
     * Back to a pristine reader: clears the in-flight miss *and* the
     * miss counter, so engines reused via reset(start) report only
     * the misses of the current run.
     */
    void
    reset()
    {
        readyAt_ = 0;
        misses_ = 0;
    }

    std::uint64_t misses() const { return misses_; }
    unsigned lineBytes() const { return lineBytes_; }

  private:
    MemoryHierarchy *mem_;
    unsigned lineBytes_;
    Cycle readyAt_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace sfetch

#endif // SFETCH_FETCH_FETCH_ENGINE_HH
