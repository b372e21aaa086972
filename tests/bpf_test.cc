/**
 * @file
 * Tests for the BPF machine: assembler (Listing-1 dialect), static
 * verifier, interpreter semantics, the event extension, and the
 * divergence rule set of section 5.2.
 */

#include <gtest/gtest.h>

#include "bpf/asm.h"
#include "bpf/interp.h"
#include "bpf/rules.h"
#include "bpf/verifier.h"
#include "ring/event.h"

namespace varan::bpf {
namespace {

// x86-64 syscall numbers used by the paper's multi-revision experiment.
constexpr std::uint32_t kNrOpen = 2;
constexpr std::uint32_t kNrGetuid = 102;
constexpr std::uint32_t kNrGetgid = 104;
constexpr std::uint32_t kNrGetegid = 108;

/** Listing 1 from the paper, verbatim (modulo whitespace). */
constexpr const char *kListing1 = R"(
    ld event[0]
    jeq #108, getegid /* __NR_getegid */
    jeq #2, open /* __NR_open */
    jmp bad
    getegid:
    ld [0] /* offsetof(struct seccomp_data, nr) */
    jeq #102, good /* __NR_getuid */
    open:
    ld [0] /* offsetof(struct seccomp_data, nr) */
    jeq #104, good /* __NR_getgid */
    bad: ret #0 /* SECCOMP_RET_KILL */
    good: ret #0x7fff0000 /* SECCOMP_RET_ALLOW */
)";

FilterContext
makeContext(std::uint32_t follower_nr, std::uint32_t leader_nr,
            const ring::Event **storage)
{
    static thread_local ring::Event event;
    event = {};
    event.type = ring::EventType::Syscall;
    event.nr = static_cast<std::uint16_t>(leader_nr);
    FilterContext ctx;
    ctx.data.nr = static_cast<std::int32_t>(follower_nr);
    ctx.event = &event;
    if (storage)
        *storage = &event;
    return ctx;
}

// --- assembler ---

TEST(AsmTest, AssemblesListing1)
{
    AssembleResult r = assemble(kListing1);
    ASSERT_TRUE(r.ok) << r.error << " at line " << r.error_line;
    EXPECT_EQ(r.program.size(), 10u);
    EXPECT_TRUE(verify(r.program).ok());
}

TEST(AsmTest, ListingOneSemantics)
{
    AssembleResult r = assemble(kListing1);
    ASSERT_TRUE(r.ok);

    // Leader executed getegid, follower wants the new getuid: ALLOW.
    FilterContext ctx = makeContext(kNrGetuid, kNrGetegid, nullptr);
    EXPECT_EQ(run(r.program, ctx), kRetAllow);

    // Leader executed open, follower wants getgid: ALLOW.
    ctx = makeContext(kNrGetgid, kNrOpen, nullptr);
    EXPECT_EQ(run(r.program, ctx), kRetAllow);

    // The published filter's getegid block falls through into the open
    // block, so (leader=getegid, follower=getgid) is also allowed.
    ctx = makeContext(kNrGetgid, kNrGetegid, nullptr);
    EXPECT_EQ(run(r.program, ctx), kRetAllow);

    // Combinations no block matches kill the follower.
    ctx = makeContext(kNrGetuid, kNrOpen, nullptr);
    EXPECT_EQ(run(r.program, ctx), kRetKill);
    ctx = makeContext(kNrGetuid, 999, nullptr);
    EXPECT_EQ(run(r.program, ctx), kRetKill);
}

TEST(AsmTest, HexAndDecimalImmediates)
{
    AssembleResult r = assemble("ld #0x10\nadd #16\nret a\n");
    ASSERT_TRUE(r.ok) << r.error;
    FilterContext ctx;
    EXPECT_EQ(run(r.program, ctx), 0x20u);
}

TEST(AsmTest, CommentStylesAreStripped)
{
    AssembleResult r = assemble(
        "ld #1 /* block */\n"
        "add #1 ; semicolon\n"
        "add #1 // slashes\n"
        "/* multi\n   line */\n"
        "ret a\n");
    ASSERT_TRUE(r.ok) << r.error;
    FilterContext ctx;
    EXPECT_EQ(run(r.program, ctx), 3u);
}

TEST(AsmTest, ThreeOperandConditional)
{
    AssembleResult r = assemble(
        "ld [0]\n"
        "jeq #5, yes, no\n"
        "yes: ret #1\n"
        "no: ret #2\n");
    ASSERT_TRUE(r.ok) << r.error;
    FilterContext ctx;
    ctx.data.nr = 5;
    EXPECT_EQ(run(r.program, ctx), 1u);
    ctx.data.nr = 6;
    EXPECT_EQ(run(r.program, ctx), 2u);
}

TEST(AsmTest, ScratchMemoryRoundTrip)
{
    AssembleResult r = assemble(
        "ld #41\n"
        "st M[3]\n"
        "ld #0\n"
        "ld M[3]\n"
        "add #1\n"
        "ret a\n");
    ASSERT_TRUE(r.ok) << r.error;
    FilterContext ctx;
    EXPECT_EQ(run(r.program, ctx), 42u);
}

TEST(AsmTest, RejectsUnknownMnemonic)
{
    AssembleResult r = assemble("frobnicate #1\nret #0\n");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_line, 1);
}

TEST(AsmTest, RejectsBackwardJump)
{
    AssembleResult r = assemble(
        "top: ld #1\n"
        "jmp top\n"
        "ret #0\n");
    EXPECT_FALSE(r.ok);
}

TEST(AsmTest, RejectsUndefinedLabel)
{
    AssembleResult r = assemble("jmp nowhere\nret #0\n");
    EXPECT_FALSE(r.ok);
}

TEST(AsmTest, RejectsDuplicateLabel)
{
    AssembleResult r = assemble("a: ld #1\na: ret #0\n");
    EXPECT_FALSE(r.ok);
}

TEST(AsmTest, DisassembleRoundTripMentionsEventExtension)
{
    AssembleResult r = assemble("ld event[0]\nret #0\n");
    ASSERT_TRUE(r.ok);
    EXPECT_NE(disassemble(r.program).find("event[0]"), std::string::npos);
}


TEST(AsmTest, NegatedConditionalSynonyms)
{
    // jne/jlt/jle assemble as the positive comparison with swapped
    // branches.
    AssembleResult r = assemble(
        "ld [0]\n"
        "jne #5, notfive, five\n"
        "notfive: ret #1\n"
        "five: ret #2\n");
    ASSERT_TRUE(r.ok) << r.error;
    FilterContext ctx;
    ctx.data.nr = 7;
    EXPECT_EQ(run(r.program, ctx), 1u);
    ctx.data.nr = 5;
    EXPECT_EQ(run(r.program, ctx), 2u);

    AssembleResult lt = assemble(
        "ld [0]\n"
        "jlt #10, small, big\n"
        "small: ret #1\n"
        "big: ret #2\n");
    ASSERT_TRUE(lt.ok) << lt.error;
    ctx.data.nr = 3;
    EXPECT_EQ(run(lt.program, ctx), 1u);
    ctx.data.nr = 10;
    EXPECT_EQ(run(lt.program, ctx), 2u);

    AssembleResult le = assemble(
        "ld [0]\n"
        "jle #10, small, big\n"
        "small: ret #1\n"
        "big: ret #2\n");
    ASSERT_TRUE(le.ok) << le.error;
    ctx.data.nr = 10;
    EXPECT_EQ(run(le.program, ctx), 1u);
    ctx.data.nr = 11;
    EXPECT_EQ(run(le.program, ctx), 2u);
}

// --- verifier ---

TEST(VerifierTest, AcceptsMinimalProgram)
{
    Program p = {stmt(BPF_RET | BPF_K, 0)};
    EXPECT_TRUE(verify(p).ok());
}

TEST(VerifierTest, RejectsEmptyProgram)
{
    EXPECT_FALSE(verify({}).ok());
}

TEST(VerifierTest, RejectsMissingTerminalRet)
{
    Program p = {stmt(BPF_LD | BPF_W | BPF_IMM, 1)};
    EXPECT_FALSE(verify(p).ok());
}

TEST(VerifierTest, RejectsJumpPastEnd)
{
    Program p = {jump(BPF_JMP | BPF_JEQ | BPF_K, 0, 1, 1),
                 stmt(BPF_RET | BPF_K, 0)};
    // displacement 1 from insn 0 targets insn 2 == len: out of bounds.
    EXPECT_FALSE(verify(p).ok());
}

TEST(VerifierTest, AcceptsJumpToLastInsn)
{
    Program p = {jump(BPF_JMP | BPF_JEQ | BPF_K, 0, 1, 1),
                 stmt(BPF_LD | BPF_W | BPF_IMM, 1),
                 stmt(BPF_RET | BPF_K, 0)};
    EXPECT_TRUE(verify(p).ok());
}

TEST(VerifierTest, RejectsConstantDivisionByZero)
{
    Program p = {stmt(BPF_ALU | BPF_DIV | BPF_K, 0),
                 stmt(BPF_RET | BPF_K, 0)};
    EXPECT_FALSE(verify(p).ok());
}

TEST(VerifierTest, RejectsScratchOutOfRange)
{
    Program p = {stmt(BPF_ST, 16), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_FALSE(verify(p).ok());
}

TEST(VerifierTest, RejectsOversizedShift)
{
    Program p = {stmt(BPF_ALU | BPF_LSH | BPF_K, 32),
                 stmt(BPF_RET | BPF_K, 0)};
    EXPECT_FALSE(verify(p).ok());
}

TEST(VerifierTest, RejectsUnknownOpcode)
{
    Program p = {Insn{0xffff, 0, 0, 0}, stmt(BPF_RET | BPF_K, 0)};
    EXPECT_FALSE(verify(p).ok());
}

TEST(VerifierTest, RejectsOverlongProgram)
{
    Program p(kMaxProgramLen + 1, stmt(BPF_LD | BPF_W | BPF_IMM, 0));
    p.back() = stmt(BPF_RET | BPF_K, 0);
    EXPECT_FALSE(verify(p).ok());
}

// Property: anything the verifier accepts must terminate and not crash.
class VerifierFuzzTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VerifierFuzzTest, AcceptedProgramsTerminate)
{
    // Tiny deterministic xorshift PRNG per seed.
    std::uint64_t state = GetParam() * 2654435761u + 1;
    auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    int accepted = 0;
    for (int trial = 0; trial < 400; ++trial) {
        Program p;
        std::size_t len = 1 + next() % 24;
        for (std::size_t i = 0; i < len; ++i) {
            Insn insn;
            insn.code = static_cast<std::uint16_t>(next() % 0x200);
            insn.jt = static_cast<std::uint8_t>(next() % 8);
            insn.jf = static_cast<std::uint8_t>(next() % 8);
            insn.k = static_cast<std::uint32_t>(next());
            p.push_back(insn);
        }
        p.push_back(stmt(BPF_RET | BPF_K, 0));
        if (!verify(p).ok())
            continue;
        ++accepted;
        FilterContext ctx;
        ctx.data.nr = static_cast<std::int32_t>(next());
        run(p, ctx); // must return, not hang or fault
    }
    // Sanity: the generator finds at least a few valid programs.
    EXPECT_GE(accepted, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- interpreter details ---

TEST(InterpTest, SeccompDataLayoutMatchesKernel)
{
    FilterContext ctx;
    ctx.data.nr = 0x1111;
    ctx.data.arch = 0x2222;
    ctx.data.instruction_pointer = 0x3333333344444444ULL;
    ctx.data.args[0] = 0x5555555566666666ULL;

    Program nr = {stmt(BPF_LD | BPF_W | BPF_ABS, 0),
                  stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(run(nr, ctx), 0x1111u);
    Program arch = {stmt(BPF_LD | BPF_W | BPF_ABS, 4),
                    stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(run(arch, ctx), 0x2222u);
    Program ip_lo = {stmt(BPF_LD | BPF_W | BPF_ABS, 8),
                     stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(run(ip_lo, ctx), 0x44444444u);
    Program arg0_hi = {stmt(BPF_LD | BPF_W | BPF_ABS, 20),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(run(arg0_hi, ctx), 0x55555555u);
}

TEST(InterpTest, EventExtensionExposesArgsAndResult)
{
    ring::Event event = {};
    event.type = ring::EventType::Syscall;
    event.nr = 1; // write
    event.args[0] = 7;
    event.args[1] = 0xaabbccdd11223344ULL;
    event.result = 0x0000000512345678LL;
    FilterContext ctx;
    ctx.event = &event;

    auto load = [&](std::uint32_t word) {
        Program p = {stmt(BPF_LD | BPF_W | BPF_ABS,
                          kEventExtBase + 4 * word),
                     stmt(BPF_RET | BPF_A, 0)};
        return run(p, ctx);
    };
    EXPECT_EQ(load(kEventNr), 1u);
    EXPECT_EQ(load(kEventTypeWord),
              static_cast<std::uint32_t>(ring::EventType::Syscall));
    EXPECT_EQ(load(kEventArgLo0), 7u);
    EXPECT_EQ(load(kEventArgLo0 + 2), 0x11223344u);
    EXPECT_EQ(load(kEventArgLo0 + 3), 0xaabbccddu);
    EXPECT_EQ(load(kEventResultLo), 0x12345678u);
    EXPECT_EQ(load(kEventResultHi), 5u);
}

TEST(InterpTest, MissingEventLoadsKill)
{
    FilterContext ctx; // no event attached
    Program p = {stmt(BPF_LD | BPF_W | BPF_ABS, kEventExtBase),
                 stmt(BPF_RET | BPF_K, kRetAllow)};
    EXPECT_EQ(run(p, ctx), kRetKill);
}

TEST(InterpTest, MisalignedDataLoadKills)
{
    FilterContext ctx;
    Program p = {stmt(BPF_LD | BPF_W | BPF_ABS, 2),
                 stmt(BPF_RET | BPF_K, kRetAllow)};
    EXPECT_EQ(run(p, ctx), kRetKill);
}

TEST(InterpTest, AluAndRegisterTransfer)
{
    // ((10 | 5) ^ 3) via A/X shuffling.
    Program p = {
        stmt(BPF_LD | BPF_W | BPF_IMM, 10),
        stmt(BPF_ALU | BPF_OR | BPF_K, 5),
        stmt(BPF_MISC | BPF_TAX, 0),
        stmt(BPF_LD | BPF_W | BPF_IMM, 3),
        stmt(BPF_ALU | BPF_XOR | BPF_X, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    FilterContext ctx;
    EXPECT_EQ(run(p, ctx), (10u | 5u) ^ 3u);
}

// --- rule set ---

TEST(RulesTest, DecodeActions)
{
    EXPECT_EQ(decodeAction(kRetAllow).action, RuleAction::Allow);
    EXPECT_EQ(decodeAction(kRetKill).action, RuleAction::Kill);
    EXPECT_EQ(decodeAction(kRetSkip).action, RuleAction::Skip);
    RuleDecision e = decodeAction(kRetErrno | ENOSYS);
    EXPECT_EQ(e.action, RuleAction::Errno);
    EXPECT_EQ(e.err, ENOSYS);
}

TEST(RulesTest, EmptyRuleSetKills)
{
    RuleSet rules;
    FilterContext ctx = makeContext(kNrGetuid, kNrGetegid, nullptr);
    EXPECT_EQ(rules.evaluate(ctx).action, RuleAction::Kill);
}

TEST(RulesTest, Listing1ViaRuleSet)
{
    RuleSet rules;
    ASSERT_TRUE(rules.addRule(kListing1).isOk()) << rules.lastError();
    FilterContext ctx = makeContext(kNrGetuid, kNrGetegid, nullptr);
    EXPECT_EQ(rules.evaluate(ctx).action, RuleAction::Allow);
    ctx = makeContext(kNrGetuid, kNrOpen, nullptr);
    EXPECT_EQ(rules.evaluate(ctx).action, RuleAction::Kill);
}

TEST(RulesTest, FirstNonKillVerdictWins)
{
    RuleSet rules;
    // Rule 1 only allows nr==1; rule 2 skips everything.
    ASSERT_TRUE(rules.addRule("ld [0]\n"
                              "jeq #1, ok\n"
                              "ret #0\n"
                              "ok: ret #0x7fff0000\n")
                    .isOk());
    ASSERT_TRUE(rules.addRule("ret #0x7ffd0000\n").isOk());
    FilterContext ctx;
    ctx.data.nr = 1;
    EXPECT_EQ(rules.evaluate(ctx).action, RuleAction::Allow);
    ctx.data.nr = 2;
    EXPECT_EQ(rules.evaluate(ctx).action, RuleAction::Skip);
}

TEST(RulesTest, RejectsMalformedRuleWithDiagnostics)
{
    RuleSet rules;
    Status st = rules.addRule("jmp nowhere\nret #0\n");
    EXPECT_FALSE(st.isOk());
    EXPECT_FALSE(rules.lastError().empty());
    EXPECT_EQ(rules.size(), 0u);
}

TEST(RulesTest, RejectsUnverifiableProgram)
{
    RuleSet rules;
    Program bad = {stmt(BPF_LD | BPF_W | BPF_IMM, 1)}; // no RET
    EXPECT_FALSE(rules.addProgram(bad).isOk());
}

TEST(RuleHeatTest, CountersAndHotHookFireOnce)
{
    RuleSet rules;
    // Rule 0 never matches (KILL), rule 1 skips everything.
    ASSERT_TRUE(rules.addRule("ret #0\n").isOk());
    ASSERT_TRUE(rules.addRule("ret #0x7ffd0000\n").isOk());

    std::size_t hot_index = 999;
    int fired = 0;
    rules.onHotRule(3, [&](std::size_t index, const RuleHeat &heat) {
        hot_index = index;
        ++fired;
        EXPECT_EQ(heat.decisions, 3u);
    });

    FilterContext ctx;
    ctx.data.nr = 42;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(rules.evaluate(ctx).action, RuleAction::Skip);

    EXPECT_EQ(rules.heat(0).evaluations, 5u);
    EXPECT_EQ(rules.heat(0).decisions, 0u);
    EXPECT_EQ(rules.heat(1).evaluations, 5u);
    EXPECT_EQ(rules.heat(1).decisions, 5u);
    EXPECT_EQ(rules.hottestRule(), 1);
    EXPECT_EQ(hot_index, 1u);
    EXPECT_EQ(fired, 1); // once per rule, not once per threshold cross
}

} // namespace
} // namespace varan::bpf
