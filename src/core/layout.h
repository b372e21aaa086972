/**
 * @file
 * Shared-memory layout of an N-version execution engine instance.
 *
 * The coordinator carves one Region (Figure 2's "shm" segment) into:
 *
 *   [ControlBlock][tuple rings][payload shadows][pool]
 *
 * The ControlBlock holds variant/tuple bookkeeping, the per-variant
 * Lamport clocks (section 3.3.3) and the election state consulted
 * during transparent failover (section 5.1). Everything is offset-
 * addressed and process-shared.
 */

#ifndef VARAN_CORE_LAYOUT_H
#define VARAN_CORE_LAYOUT_H

#include <atomic>
#include <cstdint>

#include "common/result.h"
#include "core/tuning.h"
#include "ring/lamport.h"
#include "ring/ring_buffer.h"
#include "shmem/pool.h"
#include "shmem/region.h"
#include "trace/trace.h"

namespace varan::core {

/** Compile-time bounds; the paper evaluates up to 1 leader + 6. */
inline constexpr std::uint32_t kMaxVariants = 8;
inline constexpr std::uint32_t kMaxTuples = 16;

/** First word of the ControlBlock. Lets an out-of-process inspector
 *  (`varanctl`) validate that a mapped memfd really is an engine
 *  region before dereferencing anything else. */
inline constexpr std::uint32_t kControlMagic = 0x5641524eu; // "VARN"

/** Consumer-slot ids >= kMaxVariants are reserved for taps (rr). */
inline constexpr int kTapConsumerSlot = static_cast<int>(kMaxVariants);

/** leader_id sentinel: no in-process leader (record-replay's artificial
 *  leader publishes from outside, section 5.4). */
inline constexpr std::uint32_t kNoLeader = 0xffffffffu;

/** Hard ceiling on any ring publish: a claim() still blocked after
 *  this long means a follower is wedged beyond recovery, and the
 *  publisher panics rather than hang forever. */
inline constexpr std::uint64_t kPublishStallNs = 120000000000ULL; // 2 min

enum class VariantState : std::uint32_t {
    Empty = 0,
    Running,
    Crashed,
    Exited,
};

enum class Role : std::uint32_t { Leader = 0, Follower = 1 };

/**
 * A variant's election eligibility (VariantSpec::role). FollowerOnly
 * variants — sanitizer builds, experimental revisions — are never
 * elected during transparent failover; they replay the stream but can
 * never produce it.
 */
enum class VariantRole : std::uint32_t {
    LeaderCandidate = 0,
    FollowerOnly = 1,
};

/** Per-variant status, written by variants and the coordinator. One
 *  line each: every call bumps `syscalls`, which must not bounce a
 *  line shared with the neighbouring variant. */
struct alignas(kCacheLineSize) VariantSlot {
    std::atomic<std::uint32_t> state;   ///< VariantState
    std::atomic<std::int32_t> exit_status;
    std::atomic<std::uint32_t> pid;
    std::atomic<std::uint64_t> syscalls; ///< dispatched call count (stats)
    std::atomic<std::uint32_t> role;     ///< VariantRole (election gate)
    std::atomic<std::uint32_t> restarts; ///< respawns by the restart policy
};

/** One thread/process tuple: ring + payload shadow (section 3.3.3).
 *  The tuple's pool arena is keyed by the tuple id itself: tuple t
 *  allocates payloads from shard t of the ShardedPool, so two tuples
 *  never meet on an allocator lock. */
struct TupleSlot {
    std::atomic<std::uint32_t> active;
    shmem::Offset ring;    ///< RingBuffer offset in the region
    shmem::Offset shadow;  ///< u64[capacity]: payload owned by each slot
};

static_assert(kMaxTuples <= shmem::kMaxPoolShards,
              "every tuple needs its own pool arena");

/** Engine-wide shared control state. */
struct ControlBlock {
    /** kControlMagic, written last during create() — an attacher that
     *  reads it can trust the rest of the block is initialised. */
    std::atomic<std::uint32_t> magic;
    std::uint32_t num_variants;
    std::uint32_t ring_capacity;
    /** sizeof(ControlBlock) in the build that created the region. The
     *  magic alone cannot tell two layouts apart, so attach() rejects
     *  a region whose block size differs from its own. */
    std::uint32_t block_size;
    /** Pool-header offset, persisted so EngineLayout::attach() can
     *  reconstruct the layout from the region alone. */
    shmem::Offset pool_header_off;

    std::atomic<std::uint32_t> leader_id;
    std::atomic<std::uint32_t> epoch;     ///< bumped on every election
    /** Identity of the event stream this engine publishes or consumes.
     *  A live leader starts at 1; an external-leader engine starts at 0
     *  and adopts the shipping node's generation from the wire Hello.
     *  Cross-node promotion bumps it — a resurrected pre-failover
     *  leader then fails the handshake instead of splitting the brain.
     *  Local elections do NOT bump it: the stream continues on the
     *  same node, only the epoch moves. */
    std::atomic<std::uint32_t> stream_generation;
    /** Leader promotions performed on this engine (local elections on
     *  a leader node, cross-node promotions on a receiver node). */
    std::atomic<std::uint32_t> promotions;
    std::atomic<std::uint32_t> live_mask; ///< bit per running variant
    std::atomic<std::uint32_t> num_tuples;
    std::atomic<std::uint32_t> shutdown;

    // Statistics surfaced by the coordinator API.
    std::atomic<std::uint64_t> events_streamed;
    std::atomic<std::uint64_t> divergences_resolved;
    std::atomic<std::uint64_t> divergences_fatal;
    std::atomic<std::uint64_t> fd_transfers;

    // Record-replay sink statistics, mirrored here by rr::LogSink so a
    // StatusReport — local or served over the wire status RPC — can
    // carry the recorder's health without reaching into its process.
    std::atomic<std::uint32_t> rr_active;      ///< taps attached
    std::atomic<std::uint32_t> rr_evicted;     ///< sink gave up (slow disk)
    std::atomic<std::int32_t> rr_write_errno;  ///< first latched failure
    std::atomic<std::uint64_t> rr_events;      ///< records drained
    std::atomic<std::uint64_t> rr_bytes_written;
    std::atomic<std::uint64_t> rr_spill_peak;  ///< spill-buffer high water

    /** Live event-path knobs. Every knob consumer (the wire shipper)
     *  re-reads from here at batch boundaries instead of caching
     *  config at startup. */
    TuningBlock tuning;

    /** Flight recorder, latency histograms, divergence ledger. Lives
     *  in the shared block so every attached process — including an
     *  out-of-process `varanctl` — reads the same telemetry. */
    trace::TraceBlock trace;

    VariantSlot variants[kMaxVariants];
    TupleSlot tuples[kMaxTuples];
    ring::ClockState clocks[kMaxVariants]; ///< per-variant Lamport clocks
};

/** The lowest LeaderCandidate in @p live, or kNoLeader: FollowerOnly
 *  variants are never elected, on this node or across nodes. */
std::uint32_t lowestCandidate(const ControlBlock &cb, std::uint32_t live);

/** CrossNode: this engine takes the stream over from another node. */
enum class ElectionScope { Local, CrossNode };

/** elect()'s outcome; leader == kNoLeader when nobody was elected. */
struct Election {
    std::uint32_t leader = kNoLeader;
    std::uint32_t epoch = 0;
    std::uint32_t generation = 0;
};

/**
 * Transparent failover's election (section 5.1), run by the coordinator
 * and the wire receiver alike: lowestCandidate() takes over. Arms the
 * failover-blackout clock, then bumps epoch and promotions (and, for
 * CrossNode, stream_generation) before the release store of leader_id,
 * so a reader of the new leader_id reads epoch >= 1. Stamps
 * Stage::Election with the generation and @p cause (the dead leader, or
 * the lease term). With no candidate nothing changes.
 */
Election elect(ControlBlock *cb, std::uint32_t live, ElectionScope scope,
               std::uint64_t cause);

/** Offsets of the carved structures inside the Region. */
struct EngineLayout {
    shmem::Offset control = 0;
    shmem::Offset pool_header = 0;

    /**
     * Carve and initialise an engine layout in @p region.
     *
     * Pre-attaches every follower's consumer slot (slot id == variant
     * id) on every tuple ring so the leader can never outrun a follower
     * that has not started yet.
     */
    static EngineLayout create(shmem::Region *region,
                               std::uint32_t num_variants,
                               std::uint32_t leader_id,
                               std::uint32_t ring_capacity);

    /**
     * Reconstruct the layout of an engine region created elsewhere
     * (another process, via `Region::fromFd`). Validates the control
     * magic; fails with EINVAL when the mapping is not an initialised
     * engine region, or one created by a build whose ControlBlock
     * layout differs. The basis: `create()` always carves the
     * ControlBlock first, so it sits at the first carve offset.
     */
    static Result<EngineLayout> attach(const shmem::Region *region);

    ControlBlock *
    controlBlock(const shmem::Region *region) const
    {
        return region->at<ControlBlock>(control);
    }

    ring::RingBuffer
    tupleRing(const shmem::Region *region, std::uint32_t tuple) const
    {
        ControlBlock *cb = controlBlock(region);
        return ring::RingBuffer(region, cb->tuples[tuple].ring);
    }

    /** Payload shadow array of a tuple (u64 per ring slot). */
    std::uint64_t *
    tupleShadow(const shmem::Region *region, std::uint32_t tuple) const
    {
        ControlBlock *cb = controlBlock(region);
        return static_cast<std::uint64_t *>(region->bytesAt(
            cb->tuples[tuple].shadow,
            sizeof(std::uint64_t) * cb->ring_capacity));
    }

    ring::LamportClock
    variantClock(const shmem::Region *region, std::uint32_t variant) const
    {
        ControlBlock *cb = controlBlock(region);
        return ring::LamportClock(
            region, region->offsetOf(&cb->clocks[variant]));
    }

    /** The payload pool, sharded one arena per tuple. */
    shmem::ShardedPool
    pool(const shmem::Region *region) const
    {
        return shmem::ShardedPool(region, pool_header);
    }
};

} // namespace varan::core

#endif // VARAN_CORE_LAYOUT_H
