/**
 * @file
 * Disruptor-style shared-memory ring buffer (paper section 3.3.1).
 *
 * One ring connects a thread tuple: the leader's thread is the single
 * producer, each follower's corresponding thread is an independent
 * consumer with its own cursor. The producer may run ahead of the
 * slowest *active* consumer by at most `capacity` events — this bounded
 * run-ahead is the "log distance" measured in section 5.3 and the
 * buffering window discussed in section 6.
 *
 * Lock-free except for futex sleeps: publishing is a store + release,
 * consuming is a load + cursor advance. Each side has one two-phase
 * protocol: the producer claim()s slots and commit()s events into
 * them; a consumer peekBatch()es a run and advanceBy()s past it. Crashed or deliberately slow
 * followers are deactivated so they stop gating the producer
 * (transparent failover, section 5.1).
 */

#ifndef VARAN_RING_RING_BUFFER_H
#define VARAN_RING_RING_BUFFER_H

#include <atomic>
#include <cstdint>
#include <span>

#include "ring/event.h"
#include "ring/wait.h"
#include "shmem/region.h"

namespace varan::ring {

/** Upper bound on simultaneously attached consumers (followers). */
inline constexpr std::uint32_t kMaxConsumers = 15;

/** Per-consumer cursor, cache-line isolated to avoid false sharing. */
struct alignas(kCacheLineSize) ConsumerCursor {
    std::atomic<std::uint64_t> seq;   ///< next sequence this consumer reads
    std::atomic<std::uint32_t> active;
};

/** Shared control block; events follow immediately after. */
struct RingControl {
    std::uint32_t capacity;  ///< power of two
    std::uint32_t mask;

    alignas(kCacheLineSize) std::atomic<std::uint64_t> head; ///< published
    alignas(kCacheLineSize) std::atomic<std::uint32_t> data_seq;
    std::atomic<std::uint32_t> consumers_waiting;
    alignas(kCacheLineSize) std::atomic<std::uint32_t> space_seq;
    std::atomic<std::uint32_t> producer_waiting;
    alignas(kCacheLineSize) std::atomic<std::uint32_t> attach_bitmap;

    ConsumerCursor cursors[kMaxConsumers];
};

/**
 * Value-type handle over a ring living in a shared Region.
 */
class RingBuffer
{
  public:
    RingBuffer() = default;
    RingBuffer(const shmem::Region *region, shmem::Offset off);

    /** Bytes a ring of @p capacity events needs inside a Region. */
    static std::size_t bytesRequired(std::uint32_t capacity);

    /** Format a carved area as an empty ring (coordinator, pre-fork). */
    static RingBuffer initialize(const shmem::Region *region,
                                 shmem::Offset off, std::uint32_t capacity);

    // --- producer side (exactly one thread) ---

    /**
     * Two-phase publication: claim() blocks until at least @p count
     * slots (≤ capacity) are free and returns the first claimed
     * sequence; commit() then writes the events and makes them visible
     * with one head store + at most one futex wake. Between the two the
     * producer owns the claimed slots exclusively, which is where
     * payload-shadow recycling must happen — an old payload may only be
     * released once the gating protocol has proven every consumer is
     * past its slot, i.e. after claim() returns.
     * @return false if the deadline expired before the space appeared.
     */
    bool claim(std::size_t count, std::uint64_t *seq_out,
               const WaitSpec &wait = {});

    /** Complete a claim(): copy @p events in and publish them. */
    void commit(std::span<const Event> events);

    /** Sequence number the next claim() will return. */
    std::uint64_t headSeq() const;

    /** Consumers currently announced in the waitlock (asleep or about
     *  to sleep); zero once every waiter has withdrawn. */
    std::uint32_t consumersWaiting() const;

    // --- consumer side ---

    /** Claim a consumer slot; returns slot id or -1 if all are taken. */
    int attachConsumer();

    /** Attach at a specific slot id (used when follower ids are fixed). */
    bool attachConsumerAt(int id);

    /** Release a slot and stop gating the producer on it. */
    void detachConsumer(int id);

    /**
     * Two-phase consumption: waits (per @p wait) for at least one
     * event, then copies min(available, max) without moving the cursor.
     * The copied run stays claimed until advanceBy() releases it, so
     * pool payloads referenced by the events remain valid while the
     * consumer works through the run (the producer may free a payload
     * once its slot is reused). A consumer that reads no payload may
     * advance the whole run at once.
     * @return events copied; 0 on deadline expiry.
     */
    std::size_t peekBatch(int id, Event *out, std::size_t max,
                          const WaitSpec &wait = {});

    /** Complete (part of) a peekBatch(): advance @p n events at once. */
    void advanceBy(int id, std::size_t n);

    /** Events published but not yet consumed by slot @p id. */
    std::uint64_t lag(int id) const;

    /**
     * The waitlock of a consumer holding slot @p slots[i] on each of
     * @p rings (the wire shipper's taps): announce on every ring,
     * re-check every head, then sleep once in futexWaitAny() over all
     * their data_seq words, so the first publish on any ring wakes the
     * caller. No spinning. The same announce/re-check protocol as a
     * single-ring wait, so a publish can never slip between the check
     * and the sleep.
     * @return true when some ring has events for its slot; false when
     *         @p timeout_ns (0 = forever) passed first.
     */
    static bool awaitAnyData(std::span<const RingBuffer> rings,
                             std::span<const int> slots,
                             std::uint64_t timeout_ns);

    /** True if the slot is attached and gating the producer. */
    bool consumerActive(int id) const;

  private:
    RingControl *control() const;
    Event *slots() const;
    std::uint64_t gatingSequence(std::uint64_t head) const;

    /** Wait until ≥ @p min_free slots are free; returns the free slot
     *  count (0 = deadline expired first). */
    std::uint64_t awaitSpace(std::uint64_t deadline, const WaitSpec &wait,
                             std::uint64_t min_free);

    /** Wait until ≥1 event is readable by @p id; returns available
     *  count (0 = deadline expired). */
    std::uint64_t awaitData(int id, std::uint64_t deadline,
                            const WaitSpec &wait);

    /** Activate cursor @p id at the current head (slot already won). */
    void armCursor(int id);

    const shmem::Region *region_ = nullptr;
    shmem::Offset off_ = 0;
    /** Producer-private: the gating sequence of the last rescan, a
     *  lower bound on every active cursor (see awaitSpace()). A fresh
     *  handle starts at 0, which is always safe. */
    std::uint64_t gate_cache_ = 0;
};

} // namespace varan::ring

#endif // VARAN_RING_RING_BUFFER_H
