/**
 * @file
 * Thin futex wrappers used by the shared-memory wait primitives
 * (waitlocks, section 3.3.1) and the pool allocator locks.
 *
 * All addresses must live in memory shared between the waiting and the
 * waking process (MAP_SHARED); VARAN always uses process-shared futexes.
 */

#ifndef VARAN_COMMON_FUTEX_H
#define VARAN_COMMON_FUTEX_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace varan {

/** Outcome of a timed futex wait. */
enum class FutexResult {
    Woken,      ///< FUTEX_WAKE arrived (or spurious wake)
    ValueChanged, ///< *addr != expected at syscall entry (EAGAIN)
    TimedOut,   ///< deadline expired
    Interrupted ///< EINTR
};

/**
 * Wait until *addr != expected or a wake arrives.
 *
 * @param addr futex word in shared memory.
 * @param expected value the word must still hold for the wait to sleep.
 * @param timeout_ns relative timeout; 0 means wait forever.
 */
FutexResult futexWait(const std::atomic<std::uint32_t> *addr,
                      std::uint32_t expected, std::uint64_t timeout_ns);

/** Wake up to @p count waiters; returns the number actually woken. */
int futexWake(const std::atomic<std::uint32_t> *addr, int count);

/** One word of a futexWaitAny() set. */
struct FutexWord {
    const std::atomic<std::uint32_t> *addr;
    std::uint32_t expected;
};

/** Most words one futexWaitAny() call accepts (the kernel's limit). */
inline constexpr std::size_t kFutexWaitAnyMax = 128;

/**
 * Sleep until any word of @p words differs from its expected value or
 * is woken — one futex_waitv(2) over the whole set (Linux >= 5.16).
 * On an older kernel it degrades to a futexWait() on the first word;
 * the timeout still bounds the sleep.
 *
 * @param timeout_ns relative timeout; 0 means wait forever.
 */
FutexResult futexWaitAny(std::span<const FutexWord> words,
                         std::uint64_t timeout_ns);

} // namespace varan

#endif // VARAN_COMMON_FUTEX_H
