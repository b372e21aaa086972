#include "common/futex.h"

#include <cerrno>
#include <ctime>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "common/logging.h"

namespace varan {

namespace {

long
sysFutex(const void *addr, int op, std::uint32_t val,
         const struct timespec *timeout)
{
    return ::syscall(SYS_futex, addr, op, val, timeout, nullptr, 0);
}

FutexResult
resultOf(long rc)
{
    if (rc >= 0)
        return FutexResult::Woken;
    switch (errno) {
      case EAGAIN:
        return FutexResult::ValueChanged;
      case ETIMEDOUT:
        return FutexResult::TimedOut;
      case EINTR:
        return FutexResult::Interrupted;
      default:
        return FutexResult::Woken;
    }
}

} // namespace

FutexResult
futexWait(const std::atomic<std::uint32_t> *addr, std::uint32_t expected,
          std::uint64_t timeout_ns)
{
    struct timespec ts;
    struct timespec *tsp = nullptr;
    if (timeout_ns > 0) {
        ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ULL);
        ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ULL);
        tsp = &ts;
    }
    return resultOf(sysFutex(addr, FUTEX_WAIT, expected, tsp));
}

int
futexWake(const std::atomic<std::uint32_t> *addr, int count)
{
    long rc = sysFutex(addr, FUTEX_WAKE, static_cast<std::uint32_t>(count),
                       nullptr);
    return rc < 0 ? 0 : static_cast<int>(rc);
}

FutexResult
futexWaitAny(std::span<const FutexWord> words, std::uint64_t timeout_ns)
{
    VARAN_CHECK(!words.empty() && words.size() <= kFutexWaitAnyMax);
    // Shared (not FUTEX_PRIVATE_FLAG) 32-bit words: the wakers live in
    // other processes mapping the same region.
    struct futex_waitv waiters[kFutexWaitAnyMax] = {};
    for (std::size_t i = 0; i < words.size(); ++i) {
        waiters[i].val = words[i].expected;
        waiters[i].uaddr = reinterpret_cast<std::uintptr_t>(words[i].addr);
        waiters[i].flags = FUTEX_32;
    }
    // futex_waitv takes an absolute deadline on the given clock.
    struct timespec ts;
    struct timespec *tsp = nullptr;
    if (timeout_ns > 0) {
        ::clock_gettime(CLOCK_MONOTONIC, &ts);
        const std::uint64_t ns =
            static_cast<std::uint64_t>(ts.tv_nsec) + timeout_ns;
        ts.tv_sec += static_cast<time_t>(ns / 1000000000ULL);
        ts.tv_nsec = static_cast<long>(ns % 1000000000ULL);
        tsp = &ts;
    }
    long rc = ::syscall(SYS_futex_waitv, waiters,
                        static_cast<unsigned>(words.size()), 0U, tsp,
                        CLOCK_MONOTONIC);
    if (rc < 0 && errno == ENOSYS)
        return futexWait(words[0].addr, words[0].expected, timeout_ns);
    return resultOf(rc);
}

} // namespace varan
