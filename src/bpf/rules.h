/**
 * @file
 * System-call sequence rewrite rules (paper sections 2.3, 3.4, 5.2).
 *
 * When a follower's next system call diverges from the event at the
 * head of the leader's stream, VARAN runs the installed BPF rules over
 * a FilterContext and acts on the verdict:
 *
 *  - ALLOW: the follower executes its additional system call locally
 *    (the "addition" divergence class — e.g. revision 2436's getuid).
 *  - SKIP: the leader-only event is consumed without the follower
 *    executing anything (the "removal" class).
 *  - ERRNO|e: the follower's call is absorbed and fails with -e without
 *    executing (useful when a revision merged a call away).
 *  - KILL: the follower is terminated, the lockstep-equivalent default.
 */

#ifndef VARAN_BPF_RULES_H
#define VARAN_BPF_RULES_H

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bpf/insn.h"
#include "bpf/interp.h"
#include "common/result.h"

namespace varan::bpf {

// Action encodings; ALLOW/KILL match seccomp's constants so Listing 1
// runs unmodified, SKIP sits in seccomp's reserved action space.
inline constexpr std::uint32_t kRetKill = 0x00000000;
inline constexpr std::uint32_t kRetErrno = 0x00050000;
inline constexpr std::uint32_t kRetSkip = 0x7ffd0000;
inline constexpr std::uint32_t kRetAllow = 0x7fff0000;
inline constexpr std::uint32_t kActionMask = 0xffff0000;
inline constexpr std::uint32_t kDataMask = 0x0000ffff;

enum class RuleAction { Kill, Allow, Skip, Errno };

/** Decoded filter verdict. */
struct RuleDecision {
    RuleAction action = RuleAction::Kill;
    int err = 0; ///< errno payload for RuleAction::Errno

    bool operator==(const RuleDecision &) const = default;
};

/** Decode a raw 32-bit filter return value. */
RuleDecision decodeAction(std::uint32_t ret);

/** Point-in-time heat counters for one rule (see RuleSet::heat). */
struct RuleHeat {
    std::uint64_t evaluations = 0; ///< times the rule's filter ran
    std::uint64_t decisions = 0;   ///< times its non-KILL verdict won
};

/**
 * An ordered collection of verified rewrite-rule filters.
 *
 * Rules are consulted in insertion order; the first verdict other than
 * KILL wins. With no rules installed every divergence is fatal for the
 * follower, which is exactly the classic lockstep behaviour.
 */
class RuleSet
{
  public:
    /**
     * Assemble, verify and append a textual rule.
     * @return error status with EINVAL if it fails to assemble/verify
     *         (details via lastError()).
     */
    Status addRule(std::string_view source);

    /** Append an already-built program; must pass verification. */
    Status addProgram(Program prog);

    /** Run the rules over a divergence context. */
    RuleDecision evaluate(const FilterContext &ctx) const;

    // --- hot-rule detection -----------------------------------------
    //
    // evaluate() keeps per-rule heat counters: how often each filter
    // ran, and how often its verdict decided the divergence. The
    // counters never change rule order — first-match semantics are
    // sacrosanct — they only make the interpretation cost visible so
    // operators reading logs can see which divergence pattern
    // dominates a run.

    /** Heat counters for rule @p index (insertion order). */
    RuleHeat heat(std::size_t index) const;

    /** Index of the rule that decided the most divergences so far,
     *  or -1 while no rule has decided anything. */
    int hottestRule() const;

    /**
     * Fire @p hook (at most once per rule, from inside evaluate()) when
     * a rule's winning-verdict count reaches @p threshold. The hook
     * runs on the dispatching thread mid-divergence — keep it brief
     * (log, counter bump); it must not re-enter this RuleSet.
     */
    void onHotRule(std::uint64_t threshold,
                   std::function<void(std::size_t, const RuleHeat &)> hook);

    std::size_t size() const { return programs_.size(); }
    bool empty() const { return programs_.empty(); }
    const std::string &lastError() const { return last_error_; }

  private:
    /** Heat state lives in a deque so addProgram() never relocates a
     *  slot out from under a concurrent evaluate(). */
    struct HeatSlot {
        std::atomic<std::uint64_t> evaluations{0};
        std::atomic<std::uint64_t> decisions{0};
        std::atomic<bool> hook_fired{false};
    };

    std::vector<Program> programs_;
    mutable std::deque<HeatSlot> heat_;
    std::uint64_t hot_threshold_ = 0;
    std::function<void(std::size_t, const RuleHeat &)> hot_hook_;
    std::string last_error_;
};

} // namespace varan::bpf

#endif // VARAN_BPF_RULES_H
