/**
 * @file
 * The per-variant monitor runtime (sections 3.1-3.3).
 *
 * One Monitor lives inside every variant process. It implements the
 * sys::Dispatcher interface, so every intercepted system call flows
 * through dispatch():
 *
 *  - the leader executes calls and streams them as events through the
 *    thread tuple's ring buffer, transferring descriptors over the data
 *    channels and payloads through the shared pool;
 *  - followers replay the stream, gated by the variant's Lamport clock,
 *    resolving system-call sequence divergences with BPF rewrite rules
 *    (section 3.4) and mirroring descriptors with dup2;
 *  - on leader crash, the follower elected by the coordinator drains
 *    the remaining buffered events and promotes itself, switching its
 *    dispatch table to the leader's and restarting the pending system
 *    call (section 5.1).
 */

#ifndef VARAN_CORE_MONITOR_H
#define VARAN_CORE_MONITOR_H

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "bpf/rules.h"
#include "core/channels.h"
#include "core/layout.h"
#include "core/tuple_writer.h"
#include "ring/ring_buffer.h"
#include "syscalls/classify.h"
#include "syscalls/sys.h"

namespace varan::core {

/** Exit codes the runtime uses for engine-detected conditions. */
inline constexpr int kDivergenceExitStatus = 86;

class Monitor : public sys::Dispatcher
{
  public:
    struct Config {
        std::uint32_t variant_id = 0;
        ring::WaitSpec wait;              ///< event wait policy
        std::uint64_t tick_ns = 20000000; ///< promotion/shutdown poll tick
        std::uint64_t progress_timeout_ns = 30000000000ULL; ///< 30 s
        bool verify_divergence = true;    ///< hash write buffers
        std::vector<std::string> rules_text; ///< BPF rewrite rules

        /** Restart-policy respawn: this incarnation joins the live
         *  stream at the ring tail, so the variant's shared Lamport
         *  clock (frozen where the dead incarnation left it) must be
         *  resynchronised from the first event observed — otherwise
         *  awaitTurn() would wait forever for timestamps that passed
         *  while the variant was down. */
        bool resync_clock = false;
    };

    /**
     * Initialise the runtime inside a freshly forked variant process
     * and install it as the process dispatcher. Also installs crash
     * handlers that notify the coordinator (transparent failover).
     */
    static Monitor *initVariant(const shmem::Region *region,
                                EngineLayout layout,
                                ChannelSet *channels, Config config);

    /** The process's monitor, or nullptr outside variants. */
    static Monitor *instance();

    // --- sys::Dispatcher ---
    long dispatch(long nr, const std::uint64_t args[6]) override;

    std::uint32_t variantId() const { return config_.variant_id; }

    bool
    isLeader() const
    {
        return role_.load(std::memory_order_acquire) == Role::Leader;
    }

    /**
     * Called when the variant's application code returns: the leader
     * publishes the Exit event, followers detach, everyone reports to
     * the coordinator.
     */
    void finishVariant(int status);

    /** What a new tuple runs in: a thread of this process, or a forked
     *  child process with its own descriptor demux. */
    enum class TupleKind { Thread, Process };

    /**
     * Thread/process tuple protocol (section 3.3.3): the parent calls
     * openTuple() *before* starting the child execution context; the
     * id travels through the event stream so every variant binds the
     * same tuple to the same logical thread. A Thread tuple joins this
     * process's descriptor demux at its Fork event, before the thread
     * exists (see recvFdFor()).
     */
    int openTuple(TupleKind kind);

    /** Bind the calling thread to a tuple id returned by openTuple. */
    static void bindThreadToTuple(int tuple);

    /** The calling thread's tuple (main thread = 0). */
    static int currentTuple();

  private:
    Monitor(const shmem::Region *region, EngineLayout layout,
            ChannelSet *channels, Config config);

    /** True when this variant produces @p tuple's stream: it leads and
     *  any backlog buffered before its promotion is drained. The first
     *  true detaches its own cursor from the tuple's ring. */
    bool leads(int tuple);

    long dispatchLeader(int tuple, long nr, const std::uint64_t args[6],
                        const sys::SyscallInfo &info);
    long dispatchFollower(int tuple, long nr, const std::uint64_t args[6],
                          const sys::SyscallInfo &info);
    long handleFork(int tuple, long nr, const std::uint64_t args[6]);
    long handleExit(int tuple, long nr, const std::uint64_t args[6]);

    /** Stamp and publish one leader event through the tuple's writer;
     *  the event's kHasPayload payload moves into the ring slot. */
    void publishEvent(int tuple, ring::Event &event);

    /** Leader side of openTuple(): allocate the next tuple id, claim
     *  it for the demux when it is a Thread, and publish its Fork on
     *  @p tuple. */
    int announceTuple(int tuple, TupleKind kind);

    /** Leader-side payload assembly from tuple's pool arena; returns
     *  pool offset (0 = none), reporting global-arena spills. */
    shmem::Offset buildPayload(int tuple, const sys::SyscallInfo &info,
                               long nr, const std::uint64_t args[6],
                               long result, std::uint32_t *size_out,
                               bool *spilled);

    /** Follower-side payload application into local buffers. */
    void applyPayload(const ring::Event &event,
                      const sys::SyscallInfo &info,
                      const std::uint64_t args[6]);

    /** Follower-side descriptor mirroring (dup2 to leader numbers). */
    void receiveFds(const ring::Event &event,
                    const sys::SyscallInfo &info,
                    const std::uint64_t args[6]);

    /**
     * Per-tuple descriptor routing. All of one publisher's transfers
     * share a single stream channel, but follower threads of different
     * tuples replay concurrently; an unsynchronized recvmsg race can
     * hand tuple A's descriptor to tuple B's thread (and the dup2 +
     * temporary-close dance can then destroy a just-mirrored
     * descriptor). Transfers are therefore tagged with the publishing
     * tuple, and this demux hands each thread exactly its own tuple's
     * descriptors, queueing strays for their owners.
     */
    Result<Fd> recvFdFor(std::uint32_t publisher, std::uint32_t tuple);

    /** Resolve a sequence divergence; may not return (fatal). */
    enum class DivergenceOutcome { ExecutedLocally, SkippedEvent,
                                   SyntheticErrno };
    DivergenceOutcome resolveDivergence(const ring::Event &event, long nr,
                                        const std::uint64_t args[6],
                                        long *result_out);

    /** The one transition to leader: when leader_id names this variant,
     *  flip role_ (compare-exchange, once). True if this variant leads. */
    bool maybePromote();

    /** Append a structured record to the shared divergence ledger
     *  (always — the ledger feeds the on_divergence_record hook even
     *  when the flight recorder is off). */
    void recordDivergence(const ring::Event &event, long nr,
                          const std::uint64_t args[6],
                          trace::DivergenceAction action);

    void installCrashHandlers();
    void notifyCoordinator(CtrlMsg::Type type, std::int64_t value);

    /** The replay check a follower failed, named in the fatal log. */
    enum class DivergenceCheck { EventType, SyscallNumber, ContentHash };

    /** Log which check failed with both sides' values, then exit. */
    [[noreturn]] void fatalDivergence(DivergenceCheck check,
                                      std::uint64_t mine,
                                      std::uint64_t leader);

    const shmem::Region *region_;
    EngineLayout layout_;
    ControlBlock *cb_;
    ChannelSet *channels_;
    Config config_;
    std::atomic<Role> role_;
    shmem::ShardedPool pool_;
    ring::LamportClock clock_;
    ring::RingBuffer rings_[kMaxTuples];
    TupleWriter writers_[kMaxTuples];
    bpf::RuleSet rules_;
    ring::WaitSpec tick_wait_;

    /** Restarted incarnation: resync the variant clock from the first
     *  event observed (see Config::resync_clock). */
    bool clock_resync_pending_ = false;

    // --- follower-side peek batching: a read-ahead of peeked, not yet
    //     advanced events. Slots stay claimed (and pool payloads
    //     alive) until each event is processed and advanced. ---
    static constexpr std::uint32_t kPeekRun = 8;
    struct PeekCache {
        ring::Event events[kPeekRun];
        std::uint32_t pos = 0;
        std::uint32_t count = 0;
    };
    PeekCache peeked_[kMaxTuples];

    // --- follower-side per-tuple descriptor demux (see recvFdFor) ---
    struct FdInbox {
        std::mutex mutex; ///< guards the queues only — never held
                          ///< across a blocking recv (fork safety)
        std::deque<Fd> pending[kMaxTuples];
    };
    FdInbox fd_inboxes_[kMaxVariants];

    /** Tuples whose consumer thread lives in *this* process (bit per
     *  tuple), set at the tuple's Fork (announceTuple() or the Fork
     *  branch of dispatchFollower()). Plain-fork process tuples share the data channel with
     *  the parent; the demux must not hold a sibling process's
     *  descriptor hostage, so strays for un-owned tuples fall back to
     *  carrier semantics (any received object mirrors by the event's
     *  number — the pre-demux behaviour). */
    std::atomic<std::uint32_t> owned_tuples_{1}; // main thread = tuple 0

    /** In a freshly forked child: drop the inherited demux inboxes
     *  (the parent owns those parked descriptors and, worst case, a
     *  mutex locked mid-operation at fork time). */
    void resetProcessStateAfterFork(int child_tuple);
};

} // namespace varan::core

#endif // VARAN_CORE_MONITOR_H
