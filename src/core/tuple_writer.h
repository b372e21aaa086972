/**
 * @file
 * The one producer protocol of a tuple's stream (sections 3.3.1 and
 * 3.3.4): claim, recycle, commit, count. The leader's Monitor, the
 * wire Receiver and the rr Replayer all publish through it. A payload
 * lives until its slot is reused, and only a successful claim proves
 * every consumer is past the slot, so the writer is the one place a
 * slot's old payload goes back to the pool.
 */

#ifndef VARAN_CORE_TUPLE_WRITER_H
#define VARAN_CORE_TUPLE_WRITER_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "core/layout.h"

namespace varan::core {

/** @p spin's spin policy with the kPublishStallNs deadline: the wait
 *  every producer passes to TupleWriter::publish(). */
inline ring::WaitSpec
publishWait(ring::WaitSpec spin = {})
{
    spin.timeout_ns = kPublishStallNs;
    return spin;
}

/**
 * Open tuple @p t on a mirror of a leader's stream (the wire Receiver,
 * the rr Replayer) when its Fork event passes: cover it in num_tuples
 * and mark it active, as the leader did when it published the Fork.
 * Idempotent, so a second replay pass re-activates harmlessly.
 * @return false when @p t is no tuple id (a corrupt stream).
 */
bool activateTuple(ControlBlock *cb, std::uint64_t t);

/** Value-type handle publishing into one tuple of an EngineLayout. */
class TupleWriter
{
  public:
    TupleWriter() = default;
    TupleWriter(const shmem::Region *region, const EngineLayout &layout,
                std::uint32_t tuple);

    /**
     * Publish @p events in order, in chunks of at most the ring's
     * capacity: one claim() per chunk, then each claimed slot's old
     * payload goes back to the pool, then one commit(). A slot's
     * shadow takes over the payload of the event committed into it —
     * `payload` when kHasPayload is set, none otherwise: a kDataHash
     * event keeps its content hash in `payload`, which is no offset.
     * @return events published; short of events.size() only when a
     *         claim outlasted @p wait's deadline. What such a stall
     *         means is the caller's to decide.
     */
    std::size_t
    publish(std::span<const ring::Event> events, const ring::WaitSpec &wait)
    {
        std::size_t done = 0;
        while (done < events.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(events.size() - done, capacity_);
            std::uint64_t seq = 0;
            if (!ring_.claim(chunk, &seq, wait))
                break;
            for (std::size_t k = 0; k < chunk; ++k) {
                const ring::Event &event = events[done + k];
                std::uint64_t &owned = shadow_[(seq + k) & (capacity_ - 1)];
                if (owned != 0)
                    pool_.release(owned);
                owned = event.hasPayload() ? event.payload : 0;
            }
            ring_.commit(events.subspan(done, chunk));
            done += chunk;
        }
        if (done > 0)
            streamed_->fetch_add(done, std::memory_order_relaxed);
        return done;
    }

  private:
    ring::RingBuffer ring_;
    std::uint64_t *shadow_ = nullptr;
    shmem::ShardedPool pool_;
    std::atomic<std::uint64_t> *streamed_ = nullptr;
    std::uint32_t capacity_ = 0;
};

} // namespace varan::core

#endif // VARAN_CORE_TUPLE_WRITER_H
