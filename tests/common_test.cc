/**
 * @file
 * Unit tests for the common substrate: fd wrappers, fd passing, futex,
 * clocks, the CRC32C content hash, results and logging levels.
 */

#include <cstring>
#include <fcntl.h>
#include <random>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/fd.h"
#include "common/fdpass.h"
#include "common/futex.h"
#include "common/result.h"

namespace varan {
namespace {

bool
fdIsOpen(int fd)
{
    return ::fcntl(fd, F_GETFD) >= 0;
}

TEST(FdTest, ClosesOnDestruction)
{
    int raw = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(raw, 0);
    {
        Fd fd(raw);
        EXPECT_TRUE(fd.valid());
        EXPECT_TRUE(fdIsOpen(raw));
    }
    EXPECT_FALSE(fdIsOpen(raw));
}

TEST(FdTest, MoveTransfersOwnership)
{
    int raw = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(raw, 0);
    Fd a(raw);
    Fd b(std::move(a));
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(b.get(), raw);
    Fd c;
    c = std::move(b);
    EXPECT_FALSE(b.valid());
    EXPECT_EQ(c.get(), raw);
}

TEST(FdTest, ReleaseDisownsWithoutClosing)
{
    int raw = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(raw, 0);
    {
        Fd fd(raw);
        EXPECT_EQ(fd.release(), raw);
    }
    EXPECT_TRUE(fdIsOpen(raw));
    ::close(raw);
}

TEST(FdTest, DuplicateProducesIndependentDescriptor)
{
    Fd fd(::open("/dev/null", O_RDONLY));
    auto dup = fd.duplicate();
    ASSERT_TRUE(dup.ok());
    EXPECT_NE(dup.value().get(), fd.get());
    EXPECT_TRUE(fdIsOpen(dup.value().get()));
}

TEST(FdTest, DuplicateToTargetsSpecificNumber)
{
    Fd fd(::open("/dev/null", O_RDONLY));
    const int target = 345;
    auto dup = fd.duplicateTo(target);
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup.value().get(), target);
}

TEST(SocketPairTest, EndsAreConnected)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();
    const char msg[] = "hello";
    ASSERT_TRUE(writeAll(sp.end(0).get(), msg, sizeof(msg)).isOk());
    char buf[sizeof(msg)] = {};
    ASSERT_TRUE(readAll(sp.end(1).get(), buf, sizeof(buf)).isOk());
    EXPECT_STREQ(buf, msg);
}

TEST(ReadWriteAllTest, ReadAllReportsEofAsEpipe)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();
    sp.end(0).reset(); // close writer
    char buf[4];
    Status st = readAll(sp.end(1).get(), buf, sizeof(buf));
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.error().code, EPIPE);
}

TEST(FdPassTest, TransfersDescriptorAndTag)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();

    Fd file(::open("/dev/zero", O_RDONLY));
    ASSERT_TRUE(file.valid());
    ASSERT_TRUE(sendFd(sp.end(0).get(), file.get(), 0xabcdef).isOk());

    auto got = recvFd(sp.end(1).get());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().tag, 0xabcdefu);
    // The received descriptor must actually work.
    char b;
    EXPECT_EQ(::read(got.value().fd.get(), &b, 1), 1);
    EXPECT_EQ(b, 0);
}

TEST(FdPassTest, WorksAcrossFork)
{
    auto pair = SocketPair::create(SOCK_STREAM);
    ASSERT_TRUE(pair.ok());
    auto &sp = pair.value();

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: open a pipe end and send the read side to the parent.
        int pfd[2];
        if (::pipe(pfd) < 0)
            _exit(1);
        if (::write(pfd[1], "Z", 1) != 1)
            _exit(2);
        if (!sendFd(sp.end(0).get(), pfd[0], 7).isOk())
            _exit(3);
        _exit(0);
    }
    auto got = recvFd(sp.end(1).get());
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().tag, 7u);
    char b = 0;
    EXPECT_EQ(::read(got.value().fd.get(), &b, 1), 1);
    EXPECT_EQ(b, 'Z');
}

TEST(FutexTest, WakeReleasesWaiter)
{
    std::atomic<std::uint32_t> word{0};
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        while (word.load() == 0) {
            FutexResult r = futexWait(&word, 0, 100000000ULL);
            if (r == FutexResult::ValueChanged || word.load() != 0)
                break;
        }
        woke.store(true);
    });
    sleepNs(10000000); // 10 ms
    word.store(1);
    futexWake(&word, 1);
    waiter.join();
    EXPECT_TRUE(woke.load());
}

TEST(FutexTest, TimedWaitExpires)
{
    std::atomic<std::uint32_t> word{0};
    std::uint64_t t0 = monotonicNs();
    FutexResult r = futexWait(&word, 0, 20000000ULL); // 20 ms
    std::uint64_t dt = monotonicNs() - t0;
    EXPECT_EQ(r, FutexResult::TimedOut);
    EXPECT_GE(dt, 15000000ULL);
}

TEST(FutexTest, ValueMismatchReturnsImmediately)
{
    std::atomic<std::uint32_t> word{5};
    EXPECT_EQ(futexWait(&word, 0, 0), FutexResult::ValueChanged);
}

TEST(ClockTest, MonotonicAdvances)
{
    std::uint64_t a = monotonicNs();
    sleepNs(1000000);
    std::uint64_t b = monotonicNs();
    EXPECT_GT(b, a);
}

TEST(ClockTest, RdtscAdvances)
{
    std::uint64_t a = rdtsc();
    unsigned sink = 0;
    for (int i = 0; i < 1000; ++i)
        sink += static_cast<unsigned>(i);
    asm volatile("" :: "r"(sink));
    EXPECT_GT(rdtsc(), a);
}

TEST(Crc32cTest, KnownAnswers)
{
    // The standard CRC32C check value, and the empty input.
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
    EXPECT_EQ(crc32cSoftware("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32cSoftware(nullptr, 0), 0u);
    // Chaining over a split equals one pass over the whole.
    EXPECT_EQ(crc32c("6789", 4, crc32c("12345", 5)), 0xE3069283u);
}

TEST(Crc32cTest, HardwareAndSoftwareAgree)
{
    if (!crc32cHardwareAvailable())
        GTEST_SKIP() << "no SSE4.2 on this CPU";
    std::mt19937 rng(20150314);
    std::vector<std::uint8_t> buf(4096 + 16);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());
    std::uniform_int_distribution<std::size_t> len_of(0, 4096);
    std::uniform_int_distribution<std::size_t> start_of(0, 15);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t start = start_of(rng); // misaligned on purpose
        const std::size_t len = len_of(rng);
        const std::uint8_t *p = buf.data() + start;
        ASSERT_EQ(crc32cHardware(p, len), crc32cSoftware(p, len))
            << "len " << len << " start " << start;
        ASSERT_EQ(crc32c(p, len), crc32cSoftware(p, len));
    }
}

TEST(ResultTest, ValueRoundTrip)
{
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(7), 42);
}

TEST(ResultTest, ErrorCarriesErrno)
{
    Result<int> r(Errno{ENOENT});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ENOENT);
    EXPECT_EQ(r.valueOr(7), 7);
    EXPECT_FALSE(r.error().message().empty());
}

TEST(StatusTest, OkAndError)
{
    EXPECT_TRUE(Status::ok().isOk());
    Status err(Errno{EBADF});
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.error().code, EBADF);
}

} // namespace
} // namespace varan
