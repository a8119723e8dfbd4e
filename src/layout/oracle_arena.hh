/**
 * @file
 * OracleArena: a flat SoA pre-decode of a workload's committed path,
 * the one form in which the processor consumes that path.
 *
 * A full arena decodes a whole run once. The paper's experiments are
 * sweeps — the same benchmark fed through every fetch engine, pipe
 * width, and layout — so the sweep driver decodes each (bench,
 * layout, run length) once and every point replays it, sharing one
 * read-only arena across all threads (decode-once/simulate-many).
 * A run with no shared arena replays a window (makeWindow()): a
 * private arena of kWindowInsts instructions, allocated once and
 * refilled in place by the same generator loop, fed live or from a
 * recorded SFTR trace, so its memory is bounded however long it
 * runs. A full arena is a window that never refills. Instructions
 * are addressed by absolute committed-path index; a window holds
 * [begin(), size()).
 *
 * Storage is structure-of-arrays and packed for sequential streaming:
 *
 *   - pcOff_[i]   u32 byte offset of instruction i from the image
 *                 base (the committed path never leaves the image);
 *                 one entry past the last instruction exists so
 *                 nextPc is pcOff_[i+1] — the committed successor of
 *                 instruction i *is* the next committed instruction,
 *                 so nextPc needs no array of its own.
 *   - meta_[i]    u8: InstClass (bits 0-2), BranchType (bits 3-5),
 *                 taken (bit 6).
 *   - block_[i]   u32 owning BlockId (kNoBlock for layout stubs).
 *   - dataAddr_[k] u64 address of the k-th data access: the back
 *                 end's synthetic address stream is part of the
 *                 workload model (independent of the fetch engine),
 *                 so it is pre-generated alongside the control path.
 *
 * Memory cost: 9 bytes per committed instruction plus 8 bytes per
 * load/store, i.e. ~11-12 MB per million instructions for typical
 * instruction mixes. A full arena for a paper-scale run (2M + 0.3M
 * warmup) is ~28 MB, built once per (bench, layout, run length); a
 * window is ~140 KB whatever the run length.
 *
 * Bit-identity: an arena is filled by running the live OracleStream
 * and recording exactly what it produced, so a replay is
 * bit-identical to generation by construction; the golden stats
 * suite pins this for every engine.
 */

#ifndef SFETCH_LAYOUT_ORACLE_ARENA_HH
#define SFETCH_LAYOUT_ORACLE_ARENA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "layout/code_image.hh"
#include "layout/oracle_inst.hh"
#include "workload/branch_model.hh"

namespace sfetch
{

struct RecordedTrace;

/**
 * A priori per-instruction estimate of a full arena's heap cost, for
 * admission decisions made *before* any decode: 9 B/inst of control
 * path (u32 pc offset + meta byte + u32 block id) plus 8 B per
 * load/store of pre-generated data address; the suite's instruction
 * mixes run ~30-40% memory operations, so 12 B/inst bounds the real
 * cost (~11-12 B/inst measured) from above. sfetchd's memory
 * governor budgets `insts * kArenaBytesPerInstEstimate` per decode.
 */
constexpr std::size_t kArenaBytesPerInstEstimate = 12;

/** Pre-decoded committed path (see file comment). */
class OracleArena
{
  public:
    /**
     * Capacity of a window, in instructions. A refill keeps the
     * caller's in-flight tail, so the tail must stay well under half
     * of this for each refill to bring in at least half a window of
     * fresh instructions (see Processor's constructor check).
     */
    static constexpr std::uint64_t kWindowInsts = std::uint64_t(1) << 13;

    /**
     * Decode @p insts committed instructions of (@p image, @p model,
     * @p seed) by running the live generator once. The caller sizes
     * @p insts with enough margin for the processor's fetch-ahead
     * (see kFetchAheadMargin in sim/experiment.hh).
     */
    OracleArena(const CodeImage &image, const WorkloadModel &model,
                std::uint64_t seed, std::uint64_t insts);

    /**
     * A private window over the committed path of (@p image,
     * @p model, @p seed), holding its first kWindowInsts
     * instructions. With @p replay the control path comes from the
     * recorded trace (which must outlive the window) instead of live
     * generation; the window then ends where the trace does.
     */
    static std::unique_ptr<OracleArena>
    makeWindow(const CodeImage &image, const WorkloadModel &model,
               std::uint64_t seed,
               const RecordedTrace *replay = nullptr);

    /** Generation seed the committed path was decoded with. */
    std::uint64_t seed() const { return seed_; }

    /**
     * The placed binary the path was decoded from. Replay is only
     * meaningful against this exact image (a base-layout arena
     * replayed on the optimized image would yield silently wrong
     * PCs) — runOn() enforces identity.
     */
    const CodeImage *image() const { return image_; }

    /**
     * One past the last instruction decoded so far: for a full
     * arena, the number of replayable instructions.
     */
    std::uint64_t size() const { return size_; }

    /** First instruction still held (0 unless a window refilled). */
    std::uint64_t begin() const { return lo_; }

    /** One past the last data-access address generated so far. */
    std::uint64_t dataCount() const { return dataLo_ + dataAddr_.size(); }

    /** Approximate heap footprint in bytes. */
    std::size_t bytes() const;

    /**
     * Process-wide sum of bytes() over every OracleArena currently
     * alive, whichever cache, caller or run holds it (maintained by
     * construction/destruction). This is the ground truth sfetchd's
     * `stats` verb reports against the memory budget: cache-level
     * accounting can miss arenas kept alive by outstanding
     * shared_ptrs after eviction, this counter cannot.
     */
    static std::size_t liveBytes();

    ~OracleArena();
    OracleArena(const OracleArena &) = delete;
    OracleArena &operator=(const OracleArena &) = delete;

    /**
     * Slide a window forward: drop every instruction before
     * @p keep_from and every data address before @p keep_data_from,
     * move the rest to the front of the buffers, and decode fresh
     * instructions behind them up to the capacity. Indices from
     * @p keep_from on stay valid. Allocates nothing.
     */
    void refill(std::uint64_t keep_from, std::uint64_t keep_data_from);

    /** Number of refill() calls so far. */
    std::uint64_t refills() const { return refills_; }

    /**
     * Read instruction @p i into @p out (every field assigned).
     * Reading past size() throws std::runtime_error — decode (or
     * record) with more margin.
     */
    void
    read(std::uint64_t i, OracleInst &out) const
    {
        if (i >= size_)
            throwExhausted(i);
        readUnchecked(i, out);
    }

    // Raw SoA spans for the batched replay core: the processor's
    // bulk oracle verify compares a whole fetch bundle against
    // pcOffsetsFrom() with one range compare, then scans the matched
    // run's metaFrom() bytes, with the bounds check hoisted to one
    // test per bundle.

    /** Image base address every pc offset is relative to. */
    Addr base() const { return base_; }

    /**
     * Pc offsets of instructions @p i .. size(): entry j + 1 is
     * instruction (@p i + j)'s nextPc.
     */
    const std::uint32_t *
    pcOffsetsFrom(std::uint64_t i) const
    {
        return pcOff_.data() + (i - lo_);
    }

    /** Packed meta bytes of instructions @p i .. size() - 1: class
     *  bits 0-2, branch type bits 3-5, taken bit 6. */
    const std::uint8_t *
    metaFrom(std::uint64_t i) const
    {
        return meta_.data() + (i - lo_);
    }

    /** The pointer-bump read itself (bounds already checked). */
    void
    readUnchecked(std::uint64_t i, OracleInst &out) const
    {
        const std::uint64_t j = i - lo_;
        out.pc = base_ + pcOff_[j];
        out.nextPc = base_ + pcOff_[j + 1];
        const std::uint8_t m = meta_[j];
        out.cls = static_cast<InstClass>(m & 0x07);
        out.btype = static_cast<BranchType>((m >> 3) & 0x07);
        out.taken = (m & 0x40) != 0;
        out.block = block_[j];
    }

    /** The replay-past-the-end diagnostic, shared with bulk readers. */
    [[noreturn]] void throwExhausted(std::uint64_t i) const;

    /**
     * Address of the @p k-th data access (the k-th load or store on
     * the committed path, in dispatch order). Reading past
     * dataCount() throws std::runtime_error.
     */
    Addr
    dataAddr(std::uint64_t k) const
    {
        if (k >= dataCount())
            throwDataExhausted(k);
        return dataAddr_[k - dataLo_];
    }

  private:
    struct Producer;

    /** Window constructor (see makeWindow()). */
    OracleArena(const CodeImage &image, const WorkloadModel &model,
                std::uint64_t seed, const RecordedTrace *replay);

    /**
     * The generator loop both shapes share: decode instructions from
     * @p p into buffer slots [@p from, @p to) and write the sentinel
     * pc offset after them. Stops early when a recorded trace runs
     * out; returns the slot one past the last one filled.
     */
    std::uint64_t fill(Producer &p, std::uint64_t from, std::uint64_t to);

    void registerBytes();

    [[noreturn]] void throwDataExhausted(std::uint64_t k) const;

    /** bytes() at registration time, subtracted by the destructor. */
    std::size_t registeredBytes_ = 0;

    const CodeImage *image_ = nullptr;
    Addr base_ = 0;
    std::uint64_t seed_ = 0;
    std::uint64_t lo_ = 0;     //!< absolute index of buffer slot 0
    std::uint64_t size_ = 0;   //!< one past the last decoded index
    std::uint64_t dataLo_ = 0; //!< absolute index of dataAddr_[0]
    std::vector<std::uint32_t> pcOff_; //!< held instructions + 1
    std::vector<std::uint8_t> meta_;
    std::vector<BlockId> block_;
    std::vector<Addr> dataAddr_;

    /** A window's generator state (null for a full arena). */
    std::unique_ptr<Producer> producer_;
    std::uint64_t refills_ = 0;
};

} // namespace sfetch

#endif // SFETCH_LAYOUT_ORACLE_ARENA_HH
