#include "pipeline/processor.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/simd.hh"

namespace sfetch
{

Processor::Processor(const ProcessorConfig &cfg, FetchEngine *engine,
                     const CodeImage &image, const WorkloadModel &model,
                     MemoryHierarchy *mem, std::uint64_t seed,
                     const RecordedTrace *replay,
                     const OracleArena *arena)
    : cfg_(cfg), engine_(engine), image_(&image), mem_(mem),
      arena_(arena),
      expectedPc_(image.entryAddr()), rob_(cfg.robSize)
{
    // Runtime check, not an assert: the width comes from user
    // configuration, and overrunning the inline FetchBundle array in
    // a release build would be silent memory corruption.
    checkPipeWidth(cfg_.width);
    // A refill keeps the whole in-flight tail (ROB, fetch buffer and
    // the next bundle's entries plus its nextPc); capping that tail
    // at half a window makes every refill bring in at least half a
    // window of fresh instructions.
    if (cfg_.robSize + cfg_.fetchBufferInsts + FetchBundle::kCapacity +
            1 > OracleArena::kWindowInsts / 2) {
        throw std::invalid_argument(
            "ProcessorConfig: ROB plus fetch buffer exceed half an "
            "oracle window (" +
            std::to_string(OracleArena::kWindowInsts / 2) + ")");
    }
    if (arena_ && replay)
        throw std::invalid_argument(
            "Processor: a recorded-trace replay and a shared arena "
            "are mutually exclusive");
    if (!arena_) {
        window_ = OracleArena::makeWindow(image, model, seed, replay);
        arena_ = window_.get();
    }

    batched_ = cfg_.batchedReplay;

    for (auto &l : latByCls_)
        l = cfg_.latAlu;
    latByCls_[static_cast<unsigned>(InstClass::IntMul)] = cfg_.latMul;
    latByCls_[static_cast<unsigned>(InstClass::FpAlu)] = cfg_.latFp;
    latByCls_[static_cast<unsigned>(InstClass::Store)] = cfg_.latStore;
    // Branches retire one cycle after they resolve.
    latByCls_[static_cast<unsigned>(InstClass::Branch)] =
        cfg_.branchResolveLat + 1;
}

Cycle
Processor::execLatency(unsigned cls)
{
    if (cls == static_cast<unsigned>(InstClass::Load))
        return mem_->accessData(nextDataAddr());
    if (cls == static_cast<unsigned>(InstClass::Store))
        nextDataAddr(); // stores allocate but retire immediately
    return latByCls_[cls];
}

void
Processor::refillWindow()
{
    // The oldest index in flight is the ROB head's.
    window_->refill(totalCommitted_, dataPos_);
    // The host-side prefetch cursor may trail the dropped addresses.
    dataPrefetched_ = std::max(dataPrefetched_, dataPos_);
}

void
Processor::commitStep(SimStats &st)
{
    unsigned n = 0;
    OracleInst rec;
    while (!rob_.empty() && n < cfg_.width &&
           totalCommitted_ < stopAt_ &&
           rob_.front().completeAt <= now_) {
        ++n;
        arena_->read(totalCommitted_++, rec);
        if (measuring_)
            ++st.committedInsts;

        if (rec.isBranch()) {
            CommittedBranch cb;
            cb.pc = rec.pc;
            cb.type = rec.btype;
            cb.taken = rec.taken;
            cb.target = rec.nextPc;
            engine_->trainCommit(cb);
            if (measuring_) {
                ++st.committedBranches;
                if (cb.type == BranchType::CondDirect)
                    ++st.committedCondBranches;
            }
        }
        rob_.pop_front();
    }
}

/**
 * Batched commit: find the ready run at the ROB head first (ready
 * entries are the common case, so the scan is a short branch-free
 * walk over at most `width` contiguous entries), then retire it with
 * one bulk pop and one set of counter updates. Per-branch training
 * happens in run order, exactly as the scalar loop interleaved it.
 */
void
Processor::commitStepBatched(SimStats &st)
{
    const std::size_t lim = std::min<std::size_t>(
        {static_cast<std::size_t>(cfg_.width), rob_.size(),
         static_cast<std::size_t>(stopAt_ - totalCommitted_)});
    std::size_t n = 0;
    while (n < lim && rob_.at(n).completeAt <= now_)
        ++n;
    if (n == 0)
        return;

    // The run is the committed-path indices from the ROB head on.
    // One movemask over their packed meta span finds every branch;
    // only those entries are touched, with the committed fields
    // read straight from the SoA arrays — sequential bytes commit
    // walks a few hundred cycles behind fetch's verify of the same
    // span.
    const std::uint8_t *meta = arena_->metaFrom(totalCommitted_);
    const std::uint32_t *offs = arena_->pcOffsetsFrom(totalCommitted_);
    const Addr base = arena_->base();
    std::uint32_t bmask =
        simd::maskTestU8(meta, static_cast<unsigned>(n), 0x38);
    while (bmask) {
        const unsigned j = simd::bottomBit(bmask);
        bmask &= bmask - 1;
        const std::uint8_t mb = meta[j];
        CommittedBranch cb;
        cb.pc = base + offs[j];
        cb.type = static_cast<BranchType>((mb >> 3) & 0x07);
        cb.taken = (mb & 0x40) != 0;
        cb.target = base + offs[j + 1];
        engine_->trainCommit(cb);
        if (measuring_) {
            ++st.committedBranches;
            if (cb.type == BranchType::CondDirect)
                ++st.committedCondBranches;
        }
    }
    totalCommitted_ += n;
    if (measuring_)
        st.committedInsts += n;
    rob_.pop_front_n(n);
}

void
Processor::dispatchStep(SimStats &)
{
    unsigned n = 0;
    OracleInst rec;
    while (bufHead() < pos_ && n < cfg_.width && !rob_.full()) {
        const std::uint64_t idx = bufHead();
        arena_->read(idx, rec);
        ++n;

        RobEntry &re = rob_.push_back_slot();
        re.completeAt =
            now_ + execLatency(static_cast<unsigned>(rec.cls));
        re.dispatchedAt = now_;

        if (rec.isBranch()) {
            if (diverged_ && !redirectTimeKnown_ &&
                idx == faultingIdx_) {
                redirectAt_ = now_ + cfg_.branchResolveLat;
                redirectTimeKnown_ = true;
                redirectPending_ = true;
            }
        }
    }
}

/**
 * Batched dispatch: the admissible run length (width, buffer
 * occupancy, ROB space) is computed once, the per-entry loop runs
 * without those checks, and the divergence bookkeeping test is
 * hoisted — it can only fire while a declared divergence awaits its
 * faulting branch, which is off the steady-state path.
 */
void
Processor::dispatchStepBatched(SimStats &)
{
    // The arena knows the addresses of upcoming data accesses, so
    // the (host) cache lines of the d-cache tag state they will
    // touch can be fetched ahead of the dependent model lookups —
    // those sets are effectively random, making them the model's
    // main memory stalls. Pure host-side hint; no modelled state.
    const std::uint64_t ahead = std::min(
        dataPos_ + kDataPrefetchAhead, arena_->dataCount());
    while (dataPrefetched_ < ahead)
        mem_->prefetchData(arena_->dataAddr(dataPrefetched_++));

    const std::uint64_t head = bufHead();
    const std::size_t n = std::min<std::size_t>(
        {static_cast<std::size_t>(cfg_.width),
         static_cast<std::size_t>(pos_ - head),
         static_cast<std::size_t>(cfg_.robSize) - rob_.size()});
    if (n == 0)
        return;

    // Once the faulting branch has dispatched (redirectTimeKnown_),
    // no younger entry can match its index, so the hoisted flag
    // cannot go stale within the run. Latency and the branch test
    // come from the packed meta byte; the decoded record is never
    // materialized.
    const bool await_fault = diverged_ && !redirectTimeKnown_;
    const std::uint8_t *meta = arena_->metaFrom(head);
    for (std::size_t i = 0; i < n; ++i) {
        RobEntry &re = rob_.push_back_slot();
        re.dispatchedAt = now_;
        const std::uint8_t mb = meta[i];
        re.completeAt = now_ + execLatency(mb & 0x07);

        if (await_fault && !redirectTimeKnown_ && (mb & 0x38) != 0 &&
            head + i == faultingIdx_) {
            redirectAt_ = now_ + cfg_.branchResolveLat;
            redirectTimeKnown_ = true;
            redirectPending_ = true;
        }
    }
}

void
Processor::redirectStep()
{
    if (!redirectPending_ || !redirectTimeKnown_ || now_ < redirectAt_)
        return;

    engine_->redirect(faulting_);
    diverged_ = false;
    redirectPending_ = false;
    redirectTimeKnown_ = false;
    expectedPc_ = faulting_.target;
    // The faulting branch remains the newest correct-path fetch.
}

void
Processor::fetchStep(SimStats &st)
{
    if (diverged_ && redirectTimeKnown_) {
        // Wrong path with a scheduled redirect: the front end keeps
        // running (i-cache pollution / prefetch), but its output is
        // discarded without entering the pipeline.
        bundle_.clear();
        engine_->fetchCycle(now_, cfg_.width, bundle_);
        if (measuring_) {
            if (!bundle_.empty())
                ++st.fetchCyclesAttempted; // delivered, 0 useful
            st.fetchedWrong += bundle_.size();
        }
        return;
    }

    const std::uint64_t held = pos_ - bufHead();
    std::size_t space = cfg_.fetchBufferInsts > held
        ? cfg_.fetchBufferInsts - held : 0;
    if (space == 0)
        return;

    unsigned ask = static_cast<unsigned>(
        std::min<std::size_t>(space, cfg_.width));
    const bool full_opportunity = (ask == cfg_.width);
    FetchBundle &out = bundle_;
    out.clear();
    engine_->fetchCycle(now_, ask, out);
    // The paper's fetch IPC counts instructions per *delivering*
    // full-width access; pure stall cycles (i-cache misses, FTQ
    // refill) are not fetch accesses.
    if (measuring_ && full_opportunity && !out.empty())
        ++st.fetchCyclesAttempted;

    // Both verifies read the bundle's committed entries and the
    // nextPc after them: have the window hold them first.
    if (window_ && pos_ + ask > arena_->size())
        refillWindow();
    if (batched_)
        verifyBundleBatched(st, full_opportunity);
    else
        verifyBundleScalar(st, full_opportunity);

    // Watchdog: an engine that followed a garbage target (bad RAS
    // value, stale indirect) can run out of the image and go silent
    // without ever emitting a divergent instruction. Any legitimate
    // stall (full L2+memory miss) is far shorter than this bound, so
    // prolonged silence means the last fetched branch went astray.
    if (!diverged_ && out.empty()) {
        if (++silentFetchCycles_ > kSilenceBound)
            declareDivergence(st);
    } else {
        silentFetchCycles_ = 0;
    }
}

void
Processor::verifyBundleScalar(SimStats &st, bool full_opportunity)
{
    OracleInst rec;
    for (const FetchedInst &fi : bundle_) {
        if (!diverged_ && fi.pc == expectedPc_) {
            arena_->read(pos_, rec);
            assert(rec.pc == fi.pc);
            expectedPc_ = rec.nextPc;
            if (rec.isBranch()) {
                prev_.token = fi.token;
                prev_.idx = pos_;
                prev_.rec = rec;
                havePrev_ = true;
                lastWasBranch_ = true;
            } else {
                lastWasBranch_ = false;
            }
            ++pos_;
            if (measuring_) {
                ++st.fetchedCorrect;
                if (full_opportunity)
                    ++st.fetchOppInsts;
            }
            continue;
        }

        // Wrong path instruction.
        if (!diverged_)
            declareDivergence(st);
        if (measuring_)
            ++st.fetchedWrong;
    }
}

/**
 * Bundle-at-once oracle verify over the arena's SoA spans.
 *
 * The scalar loop compares each fetched PC against expectedPc_ and
 * reads one OracleInst (bounds check included) per instruction. On
 * the arena the committed path is a flat u32 offset span, so the
 * whole bundle reduces to one range compare against the offsets —
 * the matched prefix length *is* the number of correct-path
 * instructions, and the first mismatch index is the divergence
 * point. The matched run is then ingested with the bounds check
 * hoisted (one test per bundle), branch bookkeeping driven by a
 * movemask over the packed meta bytes rather than a branchy
 * per-instruction test, and bulk statistics updates.
 */
void
Processor::verifyBundleBatched(SimStats &st, bool full_opportunity)
{
    const unsigned n = bundle_.size();
    if (n == 0)
        return;

    unsigned m = 0; // correct-path prefix length
    if (!diverged_) {
        const OracleArena &ar = *arena_;
        const Addr base = ar.base();
        const std::uint64_t pos = pos_;
        // The offsets run through index size(), one past the last
        // decoded instruction; matching that sentinel entry means
        // the committed path ran out mid-bundle (diagnosed below),
        // so include it in the compare window — exactly the
        // instructions the scalar loop would have tried to read.
        const std::uint64_t entries = ar.size() + 1 - pos;
        const unsigned lim = static_cast<unsigned>(
            std::min<std::uint64_t>(n, entries));

        // Fused range compare: each fetched PC against the committed
        // offset span, widened to the full address — one pass, no
        // staging buffer, and a wrong-path PC that left the image
        // simply mismatches (no u32 aliasing to guard against).
        const std::uint32_t *offs = ar.pcOffsetsFrom(pos);
        while (m < lim && bundle_[m].pc == base + Addr(offs[m]))
            ++m;
        // Matching entry size() is the scalar path's read(size()):
        // the arena is exhausted, not diverged.
        if (pos + m > ar.size())
            ar.throwExhausted(ar.size());

        if (m > 0) {
            // Ingest is an index bump: the fetch buffer is the index
            // range [bufHead(), pos_), and dispatch and commit read
            // the packed spans at those indices directly, so no
            // record is decoded or copied through the pipeline.
            const std::uint8_t *meta = ar.metaFrom(pos);
            pos_ += m;
            expectedPc_ = base + offs[m];

            // Branch positions of the whole run in one meta scan:
            // only the last branch matters for the divergence
            // checkpoint (the scalar loop overwrote prev_ at each),
            // so only that one record is materialized.
            const std::uint32_t bmask =
                simd::maskTestU8(meta, m, 0x38);
            if (bmask) {
                const unsigned j = simd::topBit(bmask);
                prev_.token = bundle_[j].token;
                prev_.idx = pos + j;
                ar.readUnchecked(pos + j, prev_.rec);
                havePrev_ = true;
            }
            lastWasBranch_ = ((bmask >> (m - 1)) & 1u) != 0;

            if (measuring_) {
                st.fetchedCorrect += m;
                if (full_opportunity)
                    st.fetchOppInsts += m;
            }
        }
    }

    if (m < n) {
        if (!diverged_)
            declareDivergence(st);
        if (measuring_)
            st.fetchedWrong += n - m;
    }
}

void
Processor::declareDivergence(SimStats &st)
{
    if (!havePrev_ || !lastWasBranch_) {
        throw std::runtime_error(
            "fetch engine protocol violation: divergence without a "
            "preceding branch");
    }
    diverged_ = true;
    faulting_.pc = prev_.rec.pc;
    faulting_.type = prev_.rec.btype;
    faulting_.taken = prev_.rec.taken;
    faulting_.target = prev_.rec.nextPc;
    faulting_.token = prev_.token;
    faultingIdx_ = prev_.idx;
    silentFetchCycles_ = 0;

    if (measuring_) {
        ++st.mispredicts;
        if (faulting_.type == BranchType::CondDirect)
            ++st.condMispredicts;
        st.mispredictsByType[static_cast<unsigned>(faulting_.type)]++;
    }

    // The ROB holds the indices [totalCommitted_, bufHead()), so the
    // faulting branch — if it is in flight — sits at a fixed offset
    // from the head; its entry carries the dispatch cycle.
    if (faultingIdx_ >= totalCommitted_ && faultingIdx_ < bufHead()) {
        const RobEntry &e = rob_.at(
            static_cast<std::size_t>(faultingIdx_ - totalCommitted_));
        redirectAt_ = e.dispatchedAt + cfg_.branchResolveLat;
        if (redirectAt_ <= now_)
            redirectAt_ = now_ + 1;
        redirectTimeKnown_ = true;
        redirectPending_ = true;
    } else if (faultingIdx_ < totalCommitted_) {
        // Already committed and resolved long ago (fetch was stalled
        // meanwhile): deliver the latched resolution next cycle.
        redirectAt_ = now_ + 1;
        redirectTimeKnown_ = true;
        redirectPending_ = true;
    }
    // else: still in the fetch buffer; the redirect is scheduled
    // when the branch dispatches.
}

SimStats
Processor::run(InstCount insts, InstCount warmup_insts)
{
    SimStats st;

    auto loop = [&](InstCount until_total) {
        // Exact-boundary stop: cap the final commit cycle at the
        // remaining count. The capped cycle still executes in full;
        // trimmed instructions simply commit in the next phase (or
        // not at all, for the final one).
        stopAt_ = cfg_.exactInstStop ? until_total : ~InstCount(0);
        Cycle last_progress = now_;
        InstCount last = totalCommitted_;
        while (totalCommitted_ < until_total) {
            if (batched_) {
                commitStepBatched(st);
                dispatchStepBatched(st);
            } else {
                commitStep(st);
                dispatchStep(st);
            }
            redirectStep();
            fetchStep(st);
            ++now_;
            if (measuring_)
                ++st.cycles;

            if (totalCommitted_ != last) {
                last = totalCommitted_;
                last_progress = now_;
            }
            if (now_ - last_progress > cfg_.deadlockCycles) {
                throw std::runtime_error(
                    "processor deadlock: no commit progress");
            }
        }
    };

    if (warmup_insts > 0) {
        measuring_ = false;
        loop(totalCommitted_ + warmup_insts);
        mem_->resetStats();
    }

    measuring_ = true;
    loop(totalCommitted_ + insts);

    st.engine = engine_->stats();
    st.l1iMissRate = mem_->l1i().missRate();
    st.l1dMissRate = mem_->l1d().missRate();
    return st;
}

} // namespace sfetch
