/**
 * @file
 * Wait strategies for ring-buffer producers and consumers.
 *
 * The paper's followers busy-wait for new events, falling back to a
 * futex-based "waitlock" around blocking system calls (section 3.3.1).
 * WaitSpec captures that policy: spin for a bounded number of
 * iterations, then sleep on a futex, with an optional overall deadline
 * so that nothing in VARAN can hang forever.
 */

#ifndef VARAN_RING_WAIT_H
#define VARAN_RING_WAIT_H

#include <cstdint>

namespace varan::ring {

struct WaitSpec {
    /** Busy-poll iterations before sleeping. 0 = sleep immediately. */
    std::uint32_t spin_iterations = 2048;
    /** Overall deadline in ns; 0 = wait forever. */
    std::uint64_t timeout_ns = 0;
    /** Never sleep; pure busy waiting (ablation + low-latency mode). */
    bool busy_only = false;

    static WaitSpec
    withTimeout(std::uint64_t ns)
    {
        WaitSpec w;
        w.timeout_ns = ns;
        return w;
    }
};

} // namespace varan::ring

#endif // VARAN_RING_WAIT_H
