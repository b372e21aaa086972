/**
 * @file
 * One-call forms of the ring's two protocols, for tests that drive a
 * RingBuffer directly: a producer claim()s a run and commit()s it, a
 * consumer peekBatch()es a run and advanceBy()s past it. Engine code
 * publishes through core::TupleWriter instead.
 */

#ifndef VARAN_TESTS_HARNESS_RING_OPS_H
#define VARAN_TESTS_HARNESS_RING_OPS_H

#include <span>

#include "ring/ring_buffer.h"

namespace varan::ring {

/** Claim @p events.size() (≤ capacity) slots, then commit the run.
 *  @return false when the claim outlasted @p wait (nothing published). */
inline bool
publishRun(RingBuffer &ring, std::span<const Event> events,
           const WaitSpec &wait = {})
{
    if (!ring.claim(events.size(), nullptr, wait))
        return false;
    ring.commit(events);
    return true;
}

inline bool
publishOne(RingBuffer &ring, const Event &event, const WaitSpec &wait = {})
{
    return publishRun(ring, {&event, 1}, wait);
}

/** Peek up to @p max events for consumer @p id and advance past them.
 *  @return events taken; 0 when @p wait ran out first. */
inline std::size_t
takeRun(RingBuffer &ring, int id, Event *out, std::size_t max,
        const WaitSpec &wait = {})
{
    const std::size_t n = ring.peekBatch(id, out, max, wait);
    ring.advanceBy(id, n);
    return n;
}

inline bool
takeOne(RingBuffer &ring, int id, Event *out, const WaitSpec &wait = {})
{
    return takeRun(ring, id, out, 1, wait) == 1;
}

} // namespace varan::ring

#endif // VARAN_TESTS_HARNESS_RING_OPS_H
