#include "layout/oracle.hh"

#include <cassert>
#include <stdexcept>

#include "workload/trace_io.hh"

namespace sfetch
{

OracleStream::OracleStream(const CodeImage &image,
                           const WorkloadModel &model,
                           std::uint64_t seed,
                           const RecordedTrace *replay)
    : image_(&image), gen_(image.program(), model, seed),
      replay_(replay), replayEnd_(replay ? replay->records.size() : 0)
{
    ret_stack_.reserve(TraceGenerator::kMaxCallDepth);
}

ControlRecord
OracleStream::nextRecord()
{
    if (!replay_)
        return gen_.next();
    if (replayPos_ >= replayEnd_)
        throw std::runtime_error(
            "trace replay exhausted after " +
            std::to_string(replayPos_) +
            " records; record the trace with more margin");
    return replay_->records[replayPos_++];
}

OracleInst
OracleStream::generate()
{
    OracleInst oi;
    for (;;) {
        if (tryEmitInBlock(oi))
            return oi;
        if (inBlock_) {
            // Terminator, then any stub walk scheduled after it.
            inBlock_ = false;
            return term_;
        }

        if (stubPc_ != stubStop_) {
            [[maybe_unused]] const StaticInst &si =
                image_->inst(stubPc_);
            assert(si.isStub() && "non-stub on a sequential gap");
            oi.pc = stubPc_;
            oi.cls = InstClass::Branch;
            oi.btype = BranchType::Jump;
            oi.taken = true;
            oi.nextPc = image_->takenTarget(stubPc_);
            oi.block = kNoBlock;
            stubPc_ = oi.nextPc;
            return oi;
        }

        startBlock();
    }
}

void
OracleStream::startBlock()
{
    const Program &prog = image_->program();
    ControlRecord rec = nextRecord();
    const BasicBlock &b = prog.block(rec.block);
    const Addr block_start = image_->blockAddr(rec.block);
    const Addr succ_addr = image_->blockAddr(rec.next);

    block_ = &b;
    blockStart_ = block_start;
    idx_ = 0;
    inBlock_ = true;
    stubPc_ = stubStop_ = kNoAddr;

    OracleInst &term = term_;
    term = OracleInst{};
    term.pc = block_start + instsToBytes(b.numInsts - 1);
    term.cls = b.insts[b.numInsts - 1];
    term.block = b.id;
    term.nextPc = term.pc + kInstBytes;

    const Addr seq = image_->seqAfter(b.id);

    switch (b.branchType) {
      case BranchType::None:
        // Not a branch; sequential flow, possibly via a stub.
        term.nextPc = seq;
        stubPc_ = seq;
        stubStop_ = succ_addr;
        break;
      case BranchType::CondDirect: {
        term.btype = BranchType::CondDirect;
        BlockId taken_succ = image_->normalPolarity(b.id)
            ? b.target : b.fallthrough;
        // Degenerate diamonds (both successors identical) resolve as
        // taken so the branch still transfers control.
        term.taken = (rec.next == taken_succ);
        if (term.taken) {
            term.nextPc = image_->takenTarget(term.pc);
            assert(term.nextPc == succ_addr);
        } else {
            term.nextPc = seq;
            stubPc_ = seq;
            stubStop_ = succ_addr;
        }
        break;
      }
      case BranchType::Jump:
        term.btype = BranchType::Jump;
        term.taken = true;
        term.nextPc = succ_addr;
        break;
      case BranchType::Call:
        term.btype = BranchType::Call;
        term.taken = true;
        term.nextPc = succ_addr;
        if (ret_stack_.size() < TraceGenerator::kMaxCallDepth)
            ret_stack_.push_back(seq);
        break;
      case BranchType::Return: {
        term.btype = BranchType::Return;
        term.taken = true;
        if (ret_stack_.empty()) {
            // Outer activation finished: restart at the entry.
            term.nextPc = succ_addr;
        } else {
            Addr ret = ret_stack_.back();
            ret_stack_.pop_back();
            term.nextPc = ret;
            stubPc_ = ret;
            stubStop_ = succ_addr;
        }
        break;
      }
      case BranchType::IndirectJump:
        term.btype = BranchType::IndirectJump;
        term.taken = true;
        term.nextPc = succ_addr;
        break;
    }
}

} // namespace sfetch
