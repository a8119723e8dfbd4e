#include "layout/oracle_arena.hh"

#include <atomic>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "layout/oracle.hh"
#include "util/fault_inject.hh"
#include "workload/trace_gen.hh"

namespace sfetch
{

namespace
{

/** Process-wide resident-arena byte counter (see liveBytes()). */
std::atomic<std::size_t> g_liveArenaBytes{0};

} // namespace

/** The generator a full decode runs once and a window keeps. */
struct OracleArena::Producer
{
    Producer(const CodeImage &image, const WorkloadModel &model,
             std::uint64_t seed, const RecordedTrace *replay)
        : stream(image, model, seed, replay),
          data(model.data(), seed ^ kDataStreamSeedSalt)
    {}

    OracleStream stream;
    DataAddressStream data;
    /** Committed successor of the last instruction produced. */
    Addr nextPc = kNoAddr;
};

std::size_t
OracleArena::liveBytes()
{
    return g_liveArenaBytes.load(std::memory_order_relaxed);
}

OracleArena::~OracleArena()
{
    g_liveArenaBytes.fetch_sub(registeredBytes_,
                               std::memory_order_relaxed);
}

OracleArena::OracleArena(const CodeImage &image,
                         const WorkloadModel &model,
                         std::uint64_t seed, std::uint64_t insts)
    : image_(&image), base_(image.baseAddr()), seed_(seed)
{
    // Injection point standing in for the resize() throw below: a
    // decode that cannot get its memory must surface as bad_alloc
    // (which the sweep driver degrades to private windows), never as
    // a crash or a partial arena.
    if (SFETCH_FAULT("arena.alloc"))
        throw std::bad_alloc();
    // Size the control arrays up front and fill by index: the decode
    // is the arena's whole cost, and per-element push_back capacity
    // checks plus lazy first-touch page faults were a third of it.
    pcOff_.resize(insts + 1);
    meta_.resize(insts);
    block_.resize(insts);
    dataAddr_.reserve(insts / 2);

    Producer live(image, model, seed, nullptr);
    size_ = fill(live, 0, insts);
    registerBytes();
}

OracleArena::OracleArena(const CodeImage &image,
                         const WorkloadModel &model,
                         std::uint64_t seed,
                         const RecordedTrace *replay)
    : image_(&image), base_(image.baseAddr()), seed_(seed),
      producer_(std::make_unique<Producer>(image, model, seed, replay))
{
    // Every buffer is sized once, here. A data address belongs to
    // one instruction and a refill keeps no more of them than of
    // instructions, so kWindowInsts addresses always suffice and
    // push_back never reallocates.
    pcOff_.resize(kWindowInsts + 1);
    meta_.resize(kWindowInsts);
    block_.resize(kWindowInsts);
    dataAddr_.reserve(kWindowInsts);
    size_ = fill(*producer_, 0, kWindowInsts);
    registerBytes();
}

std::unique_ptr<OracleArena>
OracleArena::makeWindow(const CodeImage &image,
                        const WorkloadModel &model, std::uint64_t seed,
                        const RecordedTrace *replay)
{
    return std::unique_ptr<OracleArena>(
        new OracleArena(image, model, seed, replay));
}

void
OracleArena::registerBytes()
{
    registeredBytes_ = bytes();
    g_liveArenaBytes.fetch_add(registeredBytes_,
                               std::memory_order_relaxed);
}

std::uint64_t
OracleArena::fill(Producer &p, std::uint64_t from, std::uint64_t to)
{
    OracleInst oi;
    std::uint64_t i = from;
    for (; i < to && p.stream.hasNext(); ++i) {
        p.stream.nextInto(oi);

        // The whole committed path lives inside the image, so a u32
        // offset from the base always suffices; and the committed
        // successor of instruction i must be instruction i+1, which
        // is what lets nextPc be pcOff_[i+1] instead of its own
        // array. Both are invariants of OracleStream — check them
        // while decoding rather than corrupting every replay.
        const Addr off = oi.pc - base_;
        if (oi.pc < base_ || off > 0xffffffffULL ||
            (p.nextPc != kNoAddr && oi.pc != p.nextPc)) {
            throw std::logic_error(
                "OracleArena: committed path violates the "
                "flat-replay invariants at instruction " +
                std::to_string(lo_ + i));
        }
        p.nextPc = oi.nextPc;

        pcOff_[i] = static_cast<std::uint32_t>(off);
        meta_[i] = static_cast<std::uint8_t>(
            (static_cast<unsigned>(oi.cls) & 0x07) |
            ((static_cast<unsigned>(oi.btype) & 0x07) << 3) |
            (oi.taken ? 0x40u : 0u));
        block_[i] = oi.block;

        if (oi.cls == InstClass::Load || oi.cls == InstClass::Store)
            dataAddr_.push_back(p.data.next());
    }

    // Sentinel: the committed successor of the last instruction, so
    // read(size_-1) can still supply nextPc.
    if (i > from) {
        const Addr off = p.nextPc - base_;
        if (p.nextPc < base_ || off > 0xffffffffULL) {
            throw std::logic_error(
                "OracleArena: final successor outside the image");
        }
        pcOff_[i] = static_cast<std::uint32_t>(off);
    }
    return i;
}

void
OracleArena::refill(std::uint64_t keep_from,
                    std::uint64_t keep_data_from)
{
    if (!producer_)
        throw std::logic_error("OracleArena: a full arena never "
                               "refills");
    assert(keep_from >= lo_ && keep_from <= size_);
    assert(keep_data_from >= dataLo_ &&
           keep_data_from <= dataCount());

    // Slide the kept tail, and the sentinel after it, to slot 0.
    const std::uint64_t drop = keep_from - lo_;
    const std::uint64_t held = size_ - keep_from;
    std::memmove(pcOff_.data(), pcOff_.data() + drop,
                 (held + 1) * sizeof(std::uint32_t));
    std::memmove(meta_.data(), meta_.data() + drop, held);
    std::memmove(block_.data(), block_.data() + drop,
                 held * sizeof(BlockId));
    dataAddr_.erase(dataAddr_.begin(),
                    dataAddr_.begin() +
                        static_cast<std::ptrdiff_t>(keep_data_from -
                                                    dataLo_));
    lo_ = keep_from;
    dataLo_ = keep_data_from;
    size_ = lo_ + fill(*producer_, held, kWindowInsts);
    ++refills_;
}

std::size_t
OracleArena::bytes() const
{
    return pcOff_.capacity() * sizeof(std::uint32_t) +
        meta_.capacity() * sizeof(std::uint8_t) +
        block_.capacity() * sizeof(BlockId) +
        dataAddr_.capacity() * sizeof(Addr);
}

void
OracleArena::throwExhausted(std::uint64_t i) const
{
    // A window refills before every read it can serve, so one that
    // runs out replays a recorded trace that ended.
    throw std::runtime_error(
        std::string(producer_ ? "trace replay" : "oracle arena") +
        " exhausted: instruction " + std::to_string(i) +
        " requested, " + std::to_string(size_) +
        " decoded; decode or record with more margin");
}

void
OracleArena::throwDataExhausted(std::uint64_t k) const
{
    throw std::runtime_error(
        "oracle arena data stream exhausted: access " +
        std::to_string(k) + " requested from an arena holding " +
        std::to_string(dataCount()) + "; decode with more margin");
}

} // namespace sfetch
