/**
 * @file
 * OracleStream: expands the committed control-flow path produced by
 * TraceGenerator into an instruction-level stream over a concrete
 * CodeImage (addresses, taken/not-taken directions after layout
 * polarization, stub jumps, return addresses). This is the
 * architectural path the processor model retires; the fetch engines
 * race ahead of it speculatively.
 */

#ifndef SFETCH_LAYOUT_ORACLE_HH
#define SFETCH_LAYOUT_ORACLE_HH

#include <vector>

#include "layout/code_image.hh"
#include "layout/oracle_inst.hh"
#include "workload/trace_gen.hh"

namespace sfetch
{

struct RecordedTrace;

/**
 * Committed instruction stream, infinite when generated live.
 * Deterministic given
 * (image, model, seed); two OracleStreams with the same arguments
 * produce identical sequences, which the simulator relies on when
 * comparing fetch architectures.
 *
 * Instructions are generated incrementally — a cursor into the
 * current basic block plus an in-progress stub walk — instead of
 * expanding whole blocks into a queue, so next() never allocates
 * (the return-address stack reserves its bounded depth up front).
 */
class OracleStream
{
  public:
    /**
     * @param replay When non-null, the committed control path is
     * read from the recorded trace (which must outlive the stream)
     * instead of being generated live; @p model and @p seed then
     * only drive the data-address side held elsewhere. A replay
     * ends where the trace does: hasNext() turns false, and next()
     * past that point throws std::runtime_error — record with
     * enough margin (see recordTrace()).
     */
    OracleStream(const CodeImage &image, const WorkloadModel &model,
                 std::uint64_t seed,
                 const RecordedTrace *replay = nullptr);

    /**
     * Next committed instruction. The in-block fast path is inline
     * (one instruction per call on the hot path); block boundaries
     * and stub walks go through generate().
     */
    OracleInst
    next()
    {
        OracleInst oi;
        nextInto(oi);
        return oi;
    }

    /**
     * next(), writing straight into caller-owned storage instead of
     * returning through a temporary. Every field of @p out is
     * assigned.
     */
    void
    nextInto(OracleInst &out)
    {
        if (!tryEmitInBlock(out))
            out = generate();
    }

    /**
     * False once a recorded trace has no record left for the next
     * instruction; a live stream never ends.
     */
    bool
    hasNext() const
    {
        return !replay_ || inBlock_ || stubPc_ != stubStop_ ||
            replayPos_ < replayEnd_;
    }

  private:
    /**
     * The in-block fast path: emit the next non-terminator
     * instruction of the current block, assigning every field of
     * @p out. The single definition shared by nextInto() and
     * generate() — the bit-identity guarantee depends on both
     * emitting exactly the same instructions.
     */
    bool
    tryEmitInBlock(OracleInst &out)
    {
        if (!inBlock_ || idx_ + 1 >= block_->numInsts)
            return false;
        out.pc = blockStart_ + instsToBytes(idx_);
        out.cls = block_->insts[idx_];
        out.btype = BranchType::None;
        out.taken = false;
        out.nextPc = out.pc + kInstBytes;
        out.block = block_->id;
        ++idx_;
        return true;
    }

    OracleInst generate();
    void startBlock();

    /** The next committed control record: live or replayed. */
    ControlRecord nextRecord();

    const CodeImage *image_;
    TraceGenerator gen_;
    const RecordedTrace *replay_ = nullptr;
    std::size_t replayPos_ = 0;
    std::size_t replayEnd_ = 0; //!< replay_'s record count

    // Incremental expansion state: the block being emitted, its
    // precomputed terminator, and the stub walk that follows it.
    const BasicBlock *block_ = nullptr;
    Addr blockStart_ = kNoAddr;
    std::uint32_t idx_ = 0; //!< next instruction index in block_
    bool inBlock_ = false;
    OracleInst term_;       //!< the block's terminator instruction
    Addr stubPc_ = kNoAddr; //!< in-progress stub walk; == stubStop_
    Addr stubStop_ = kNoAddr; //!< when there is nothing to walk

    std::vector<Addr> ret_stack_;
};

} // namespace sfetch

#endif // SFETCH_LAYOUT_ORACLE_HH
