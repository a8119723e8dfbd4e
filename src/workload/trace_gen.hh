/**
 * @file
 * Dynamic trace generation: executes a Program under a WorkloadModel,
 * producing the committed control-flow path as a stream of
 * (block, successor) records. This replaces the paper's 300M-
 * instruction SPECint `ref` traces.
 */

#ifndef SFETCH_WORKLOAD_TRACE_GEN_HH
#define SFETCH_WORKLOAD_TRACE_GEN_HH

#include <vector>

#include "isa/program.hh"
#include "util/rng.hh"
#include "workload/branch_model.hh"

namespace sfetch
{

/** One executed basic block and the successor control chose. */
struct ControlRecord
{
    BlockId block = kNoBlock;
    BlockId next = kNoBlock;
};

/**
 * Walks the CFG according to the behaviour model. The stream is
 * infinite: a Return with an empty call stack restarts the program at
 * its entry (modelling the outer driver loop of a benchmark).
 *
 * Each generator owns a private copy of the WorkloadModel, so several
 * generators (profiling run, measurement run, oracle) never perturb
 * each other, and a given (program, model, seed) triple always yields
 * the same trace.
 */
class TraceGenerator
{
  public:
    /**
     * @param prog Program to execute (must outlive the generator).
     * @param model Behaviour model (copied).
     * @param seed RNG seed; use different seeds for `train` vs `ref`
     *             flavoured inputs.
     */
    TraceGenerator(const Program &prog, const WorkloadModel &model,
                   std::uint64_t seed);

    /** Execute the current block; return it and the chosen successor. */
    ControlRecord next();

    /** Block about to execute. */
    BlockId currentBlock() const { return cur_; }

    /** Restart from the entry with fresh dynamic state (same seed). */
    void reset();

    /** Current call stack depth (for tests). */
    std::size_t callDepth() const { return call_stack_.size(); }

    /** Number of records produced so far. */
    std::uint64_t recordCount() const { return records_; }

    /**
     * Call stack depth cap; pushes beyond it are dropped (matching
     * returns then pop an older frame). Mirrored by OracleStream.
     */
    static constexpr std::size_t kMaxCallDepth = 256;

  private:
    const Program *prog_;
    WorkloadModel model_;
    std::uint64_t seed_;
    Pcg32 rng_;
    BlockId cur_;
    std::vector<BlockId> call_stack_;
    std::uint64_t records_ = 0;
};

/**
 * Salt mixed into the run seed to derive the data-address stream's
 * seed, shared by every OracleArena decode (full arenas and
 * windows) so all draw the identical address sequence.
 */
constexpr std::uint64_t kDataStreamSeedSalt = 0xda7aULL;

/**
 * Synthetic data-access address stream for the back-end d-cache
 * model. Deterministic given (model, seed): the n-th access is the
 * same regardless of which fetch architecture is being simulated.
 */
class DataAddressStream
{
  public:
    DataAddressStream(const DataModel &model, std::uint64_t seed)
        : model_(model), rng_(mix64(seed), 0x5851f42d4c957f2dULL)
    {
        // The region sizes are normally powers of two; precomputing
        // the masks turns the per-access modulo (a 64-bit divide)
        // into an AND on that common case.
        if (isPow2(model_.workingSetBytes))
            wsMask_ = model_.workingSetBytes - 1;
        if (isPow2(model_.hotBytes))
            hotMask_ = model_.hotBytes - 1;
    }

    /** Address of the next memory access (hot path, inline). */
    Addr
    next()
    {
        double u = rng_.nextDouble();
        Addr base = 0x10000000ULL;
        if (u < model_.streamFraction) {
            // Sequential walk through the working set.
            seq_cursor_ = modWs(seq_cursor_ + 8);
            return base + seq_cursor_;
        }
        if (u < model_.streamFraction + model_.hotFraction) {
            // Hot (stack-like) region.
            Addr off = modHot(rng_.next64());
            return base + model_.workingSetBytes + (off & ~Addr(7));
        }
        // Random access over the working set.
        Addr off = modWs(rng_.next64());
        return base + (off & ~Addr(7));
    }

  private:
    static bool isPow2(Addr x) { return x && (x & (x - 1)) == 0; }

    Addr
    modWs(Addr x) const
    {
        return wsMask_ ? (x & wsMask_) : x % model_.workingSetBytes;
    }

    Addr
    modHot(Addr x) const
    {
        return hotMask_ ? (x & hotMask_) : x % model_.hotBytes;
    }

    DataModel model_;
    Pcg32 rng_;
    Addr seq_cursor_ = 0;
    Addr wsMask_ = 0;
    Addr hotMask_ = 0;
};

} // namespace sfetch

#endif // SFETCH_WORKLOAD_TRACE_GEN_HH
