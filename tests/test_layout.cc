/**
 * @file
 * Tests for the layout module: CodeImage placement invariants, the
 * Pettis-Hansen-style optimizer, and the oracle instruction stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "isa/cfg_builder.hh"
#include "layout/code_image.hh"
#include "layout/layout_opt.hh"
#include "layout/oracle.hh"
#include "layout/oracle_arena.hh"
#include "workload/suite.hh"
#include "workload/trace_io.hh"

using namespace sfetch;

namespace
{

SyntheticWorkload
hammockLoop()
{
    // Loop around a hammock where the *taken* arm is hot in the
    // baseline layout, so the optimizer has something to fix.
    CfgBuilder b("hl");
    BlockId head = b.addBlock(4);  // cond
    BlockId cold = b.addBlock(3);  // adjacent (fallthrough) arm
    BlockId hot = b.addBlock(6);   // taken arm
    BlockId join = b.addBlock(4);
    BlockId latch = b.addBlock(2);
    BlockId exit = b.addBlock(2);
    b.cond(head, hot, cold);
    b.jump(cold, join);
    b.fallthrough(hot, join);
    b.fallthrough(join, latch);
    b.cond(latch, head, exit);
    b.ret(exit);

    SyntheticWorkload w;
    w.program = b.build(head);
    CondModel hm;
    hm.kind = CondModel::Kind::Biased;
    hm.pPrimary = 0.9; // 90% to the taken (hot) arm
    w.model.setCond(head, hm);
    CondModel lm;
    lm.kind = CondModel::Kind::Loop;
    lm.meanTrips = 16.0;
    w.model.setCond(latch, lm);
    return w;
}

} // namespace

// ---- CodeImage ----

TEST(CodeImage, BaselineOrderIsIdentity)
{
    SyntheticWorkload w = hammockLoop();
    auto order = baselineOrder(w.program);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(CodeImage, EveryBlockPlacedInBounds)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    for (BlockId id = 0; id < w.program.numBlocks(); ++id) {
        Addr a = img.blockAddr(id);
        EXPECT_TRUE(img.contains(a));
        // Last instruction of the block is in bounds too.
        EXPECT_TRUE(img.contains(
            a + instsToBytes(w.program.block(id).numInsts - 1)));
    }
}

TEST(CodeImage, InstLookupMatchesBlocks)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    for (BlockId id = 0; id < w.program.numBlocks(); ++id) {
        const BasicBlock &b = w.program.block(id);
        Addr base = img.blockAddr(id);
        for (std::uint32_t k = 0; k < b.numInsts; ++k) {
            const StaticInst &si = img.inst(base + instsToBytes(k));
            EXPECT_EQ(si.block, id);
            EXPECT_EQ(si.offset, k);
            EXPECT_EQ(si.cls, b.insts[k]);
            if (k + 1 == b.numInsts)
                EXPECT_EQ(si.btype, b.branchType);
            else
                EXPECT_EQ(si.btype, BranchType::None);
        }
    }
}

TEST(CodeImage, BaselineNeedsNoStubsForChainedProgram)
{
    // hammockLoop was generated in layout-compatible order except
    // the hot arm, which requires the cold arm's jump only.
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    EXPECT_EQ(img.numStubs(), 0u);
}

TEST(CodeImage, StubInsertedWhenFallthroughSeparated)
{
    CfgBuilder b("stub");
    BlockId a = b.addBlock(2);
    BlockId c = b.addBlock(2);
    BlockId d = b.addBlock(2);
    b.fallthrough(a, d); // a must be followed by d, but order a,c,d
    b.ret(c);
    b.ret(d);
    Program p = b.build(a);
    CodeImage img(p, {a, c, d});
    EXPECT_EQ(img.numStubs(), 1u);
    // The stub right after a jumps to d.
    Addr stub_pc = img.blockAddr(a) + p.block(a).sizeBytes();
    const StaticInst &si = img.inst(stub_pc);
    EXPECT_TRUE(si.isStub());
    EXPECT_EQ(si.btype, BranchType::Jump);
    EXPECT_EQ(img.takenTarget(stub_pc), img.blockAddr(d));
}

TEST(CodeImage, CondPolarityFollowsAdjacency)
{
    CfgBuilder b("pol");
    BlockId c = b.addBlock(2);
    BlockId t = b.addBlock(2);
    BlockId f = b.addBlock(2);
    b.cond(c, t, f);
    b.ret(t);
    b.ret(f);
    Program p = b.build(c);

    // Order c,f,t: CFG fallthrough f is adjacent -> normal polarity.
    CodeImage normal(p, {c, f, t});
    EXPECT_TRUE(normal.normalPolarity(c));
    EXPECT_EQ(normal.takenTarget(normal.blockAddr(c) + 4),
              normal.blockAddr(t));

    // Order c,t,f: CFG target t adjacent -> inverted polarity.
    CodeImage inverted(p, {c, t, f});
    EXPECT_FALSE(inverted.normalPolarity(c));
    EXPECT_EQ(inverted.takenTarget(inverted.blockAddr(c) + 4),
              inverted.blockAddr(f));
}

TEST(CodeImage, CallContinuationKeptSequential)
{
    CfgBuilder b("call");
    BlockId m = b.addBlock(2);
    BlockId callee = b.addBlock(2);
    BlockId cont = b.addBlock(2);
    b.call(m, callee, cont);
    b.ret(callee);
    b.ret(cont);
    Program p = b.build(m);

    // Order m, callee, cont: continuation NOT adjacent -> stub.
    CodeImage img(p, {m, callee, cont});
    EXPECT_EQ(img.numStubs(), 1u);
    Addr ret_addr = img.seqAfter(m);
    const StaticInst &si = img.inst(ret_addr);
    EXPECT_TRUE(si.isStub());
    EXPECT_EQ(img.takenTarget(ret_addr), img.blockAddr(cont));
}

// ---- optimizer ----

TEST(Optimizer, ProducesPermutation)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    auto order = optimizedOrder(w.program, prof);
    EXPECT_EQ(order.size(), w.program.numBlocks());
    std::set<BlockId> uniq(order.begin(), order.end());
    EXPECT_EQ(uniq.size(), order.size());
}

TEST(Optimizer, ReducesTakenFraction)
{
    // gcc is hammock-rich, so the aligned fraction is very visible;
    // loop back edges (unavoidably taken) put a floor under it.
    SyntheticWorkload w = generateWorkload(suiteParams("gcc"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 100'000);
    CodeImage base(w.program, baselineOrder(w.program));
    CodeImage opt(w.program, optimizedOrder(w.program, prof));
    LayoutQuality qb = evaluateLayout(w.program, prof, base);
    LayoutQuality qo = evaluateLayout(w.program, prof, opt);
    // The whole point of the optimization: conditionals align
    // towards not-taken.
    EXPECT_LT(qo.takenFraction(), qb.takenFraction() - 0.1);
    EXPECT_LT(qo.takenFraction(), 0.40);
}

TEST(Optimizer, HotArmBecomesFallthrough)
{
    SyntheticWorkload w = hammockLoop();
    EdgeProfile prof = collectProfile(w.program, w.model, 3, 20'000);
    CodeImage opt(w.program, optimizedOrder(w.program, prof));
    // Block 0's hot successor (block 2) must be the fall-through,
    // i.e. polarity inverted relative to the CFG.
    EXPECT_FALSE(opt.normalPolarity(0));
}

// ---- OracleStream ----

TEST(Oracle, PcChainsAreContiguous)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    OracleStream oracle(img, w.model, kRefSeed);
    OracleInst prev = oracle.next();
    EXPECT_EQ(prev.pc, img.entryAddr());
    for (int i = 0; i < 5000; ++i) {
        OracleInst cur = oracle.next();
        ASSERT_EQ(cur.pc, prev.nextPc) << "at inst " << i;
        if (!prev.isBranch())
            ASSERT_EQ(cur.pc, prev.pc + kInstBytes);
        prev = cur;
    }
}

TEST(Oracle, BranchRecordsConsistentWithImage)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    CodeImage img(w.program, optimizedOrder(w.program, prof));
    OracleStream oracle(img, w.model, kRefSeed);
    for (int i = 0; i < 20000; ++i) {
        OracleInst oi = oracle.next();
        const StaticInst &si = img.inst(oi.pc);
        ASSERT_EQ(si.btype, oi.btype);
        if (oi.btype == BranchType::CondDirect) {
            if (oi.taken)
                ASSERT_EQ(oi.nextPc, img.takenTarget(oi.pc));
            else
                ASSERT_EQ(oi.nextPc, oi.pc + kInstBytes);
        } else if (oi.btype == BranchType::Jump ||
                   oi.btype == BranchType::Call) {
            ASSERT_TRUE(oi.taken);
            ASSERT_EQ(oi.nextPc, img.takenTarget(oi.pc));
        }
    }
}

TEST(Oracle, Deterministic)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    OracleStream a(img, w.model, 5), b(img, w.model, 5);
    for (int i = 0; i < 2000; ++i) {
        OracleInst x = a.next();
        OracleInst y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.nextPc, y.nextPc);
    }
}

TEST(Oracle, StubJumpsAppearOnColdPath)
{
    // Force a layout with a stub on the frequent path and verify the
    // oracle emits the stub instruction.
    CfgBuilder b("stub2");
    BlockId a = b.addBlock(2);
    BlockId c = b.addBlock(2);
    BlockId d = b.addBlock(2);
    b.fallthrough(a, d);
    b.ret(c);
    b.ret(d);
    Program p = b.build(a);
    WorkloadModel m;
    CodeImage img(p, {a, c, d});

    OracleStream oracle(img, m, 1);
    oracle.next(); // a[0]
    oracle.next(); // a[1]
    OracleInst stub = oracle.next();
    EXPECT_EQ(stub.block, kNoBlock);
    EXPECT_EQ(stub.btype, BranchType::Jump);
    EXPECT_TRUE(stub.taken);
    EXPECT_EQ(stub.nextPc, img.blockAddr(d));
}

TEST(Oracle, ReturnUsesLayoutReturnAddress)
{
    CfgBuilder b("callret");
    BlockId m = b.addBlock(2);
    BlockId callee = b.addBlock(2);
    BlockId cont = b.addBlock(2);
    b.call(m, callee, cont);
    b.ret(callee);
    b.ret(cont);
    Program p = b.build(m);
    WorkloadModel wm;
    CodeImage img(p, baselineOrder(p)); // m, callee, cont: stub!

    OracleStream oracle(img, wm, 1);
    oracle.next();                   // m[0]
    OracleInst call = oracle.next(); // the call
    EXPECT_EQ(call.btype, BranchType::Call);
    oracle.next();                   // callee[0]
    OracleInst ret = oracle.next();  // the return
    EXPECT_EQ(ret.btype, BranchType::Return);
    // Return lands on the stub right after the call.
    EXPECT_EQ(ret.nextPc, img.seqAfter(m));
    OracleInst stub = oracle.next();
    EXPECT_TRUE(img.inst(stub.pc).isStub());
    EXPECT_EQ(stub.nextPc, img.blockAddr(cont));
}

// ---- OracleArena ----

/** Every field of @p a and @p b agrees. */
bool
sameInst(const OracleInst &a, const OracleInst &b)
{
    return a.pc == b.pc && a.nextPc == b.nextPc && a.cls == b.cls &&
        a.btype == b.btype && a.taken == b.taken && a.block == b.block;
}

/**
 * The arena is defined as "exactly what the live stream produced":
 * every field of every instruction (pc, nextPc, class, branch type,
 * taken, owning block — including kNoBlock stubs) must match the
 * live generator.
 */
TEST(OracleArena, ReplayMatchesLiveFieldForField)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    CodeImage img(w.program, baselineOrder(w.program));
    const std::uint64_t n = 30'000;
    OracleArena arena(img, w.model, kRefSeed, n);
    EXPECT_EQ(arena.size(), n);
    EXPECT_EQ(arena.begin(), 0u);
    EXPECT_EQ(arena.seed(), kRefSeed);
    EXPECT_GT(arena.bytes(), 0u);
    EXPECT_GT(arena.dataCount(), 0u);

    OracleStream live(img, w.model, kRefSeed);
    for (std::uint64_t i = 0; i < n; ++i) {
        OracleInst b;
        arena.read(i, b);
        ASSERT_TRUE(sameInst(live.next(), b)) << "inst " << i;
    }
}

TEST(OracleArena, DataAddressesMatchLiveStream)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    CodeImage img(w.program, baselineOrder(w.program));
    OracleArena arena(img, w.model, kRefSeed, 10'000);
    DataAddressStream ds(w.model.data(),
                         kRefSeed ^ kDataStreamSeedSalt);
    for (std::uint64_t k = 0; k < arena.dataCount(); ++k)
        ASSERT_EQ(arena.dataAddr(k), ds.next()) << "access " << k;
}

TEST(OracleArena, ReadingPastTheEndThrows)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    OracleArena arena(img, w.model, kRefSeed, 100);
    OracleInst oi;
    arena.read(99, oi); // last valid index still has a nextPc
    EXPECT_THROW(arena.read(100, oi), std::runtime_error);
    EXPECT_THROW(arena.dataAddr(arena.dataCount()),
                 std::runtime_error);
    EXPECT_THROW(arena.refill(0, 0), std::logic_error)
        << "a full arena never refills";
}

/**
 * A window slides in place: each refill keeps the requested tail at
 * its absolute indices, decodes fresh instructions behind it up to
 * the capacity, and never reallocates; across many refills it reads
 * exactly the live stream, data addresses included.
 */
TEST(OracleArena, WindowRefillsInPlaceAndMatchesLive)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    CodeImage img(w.program, baselineOrder(w.program));
    auto win = OracleArena::makeWindow(img, w.model, kRefSeed);
    const std::uint64_t cap = OracleArena::kWindowInsts;
    EXPECT_EQ(win->begin(), 0u);
    EXPECT_EQ(win->size(), cap);
    const std::size_t bytes = win->bytes();

    OracleStream live(img, w.model, kRefSeed);
    DataAddressStream ds(w.model.data(),
                         kRefSeed ^ kDataStreamSeedSalt);
    std::uint64_t i = 0, k = 0;
    constexpr std::uint64_t kTail = 300; // a ROB's worth in flight
    for (int r = 0; r < 25; ++r) {
        for (; i < win->size(); ++i) {
            OracleInst b;
            win->read(i, b);
            ASSERT_TRUE(sameInst(live.next(), b)) << "inst " << i;
        }
        // Consume the data addresses of all but the kept tail.
        const std::uint64_t keep = i - kTail;
        for (; k + kTail < win->dataCount(); ++k)
            ASSERT_EQ(win->dataAddr(k), ds.next()) << "access " << k;
        win->refill(keep, k);
        EXPECT_EQ(win->begin(), keep);
        EXPECT_EQ(win->size(), keep + cap);
        EXPECT_EQ(win->bytes(), bytes) << "refill reallocated";
        // The kept tail is still readable at its absolute indices.
        OracleInst t;
        win->read(keep, t);
    }
    EXPECT_EQ(win->refills(), 25u);
    EXPECT_GT(i, 20 * cap);
}

/** A trace-fed window ends where the recorded trace does. */
TEST(OracleArena, TraceWindowEndsWithTheTrace)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    CodeImage img(w.program, baselineOrder(w.program));
    RecordedTrace trace =
        recordTrace(w.program, w.model, kRefSeed, 3 * 4096, "gzip");
    auto win = OracleArena::makeWindow(img, w.model, kRefSeed, &trace);
    OracleStream live(img, w.model, kRefSeed);
    std::uint64_t i = 0;
    while (true) {
        for (; i < win->size(); ++i) {
            OracleInst b;
            win->read(i, b);
            ASSERT_TRUE(sameInst(live.next(), b)) << "inst " << i;
        }
        const std::uint64_t before = win->size();
        win->refill(i, win->dataCount());
        if (win->size() == before)
            break;
    }
    EXPECT_GE(i, 3u * 4096) << "the trace covers its instructions";
    OracleInst oi;
    EXPECT_THROW(win->read(i, oi), std::runtime_error);
}

class LayoutOnSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(LayoutOnSuite, OracleRunsOnBothLayouts)
{
    SyntheticWorkload w = generateWorkload(suiteParams(GetParam()));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    for (bool opt : {false, true}) {
        CodeImage img(w.program,
                      opt ? optimizedOrder(w.program, prof)
                          : baselineOrder(w.program));
        OracleStream oracle(img, w.model, kRefSeed);
        OracleInst prev = oracle.next();
        for (int i = 0; i < 20000; ++i) {
            OracleInst cur = oracle.next();
            ASSERT_EQ(cur.pc, prev.nextPc);
            ASSERT_TRUE(img.contains(cur.pc));
            prev = cur;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, LayoutOnSuite,
    ::testing::Values("gzip", "gcc", "perlbmk", "twolf"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- STC layout variant ----

TEST(StcLayout, ProducesPermutation)
{
    SyntheticWorkload w = generateWorkload(suiteParams("vpr"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    auto order = stcOrder(w.program, prof);
    EXPECT_EQ(order.size(), w.program.numBlocks());
    std::set<BlockId> uniq(order.begin(), order.end());
    EXPECT_EQ(uniq.size(), order.size());
    // Entry block leads the hot chain.
    EXPECT_EQ(order.front(), w.program.entry());
}

TEST(StcLayout, ImprovesOverBaseline)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gcc"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 100'000);
    CodeImage base(w.program, baselineOrder(w.program));
    CodeImage stc(w.program, stcOrder(w.program, prof));
    EXPECT_LT(evaluateLayout(w.program, prof, stc).takenFraction(),
              evaluateLayout(w.program, prof, base).takenFraction());
}
