#include "lockstep/lockstep.h"

#include <cstring>
#include <poll.h>
#include <sys/ptrace.h>
#include <sys/socket.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/fdpass.h"
#include "common/logging.h"
#include "syscalls/raw.h"

namespace varan::lockstep {

namespace {

constexpr std::size_t kMaxInline = 8192; ///< buffer bytes per message

/** How long variants get to exit on their own before the monitor
 *  kills their process groups. */
constexpr std::uint64_t kReapGraceNs = 250000000; // 250 ms

enum class MsgKind : std::uint32_t {
    Request = 1,  ///< variant -> monitor: about to make a syscall
    GoLocal,      ///< monitor -> variant: execute it yourself
    GoExecute,    ///< monitor -> executor: run it for the group
    ExecDone,     ///< executor -> monitor: result + out buffer
    Result,       ///< monitor -> variant: final result + out buffer
    Killed,       ///< monitor -> variant: lockstep divergence
};

struct MsgHeader {
    MsgKind kind;
    std::int32_t variant;
    std::int64_t nr;
    std::int64_t result;
    std::uint64_t args[6];
    std::uint32_t payload;   ///< bytes following the header
    std::uint32_t sends_fd;  ///< an SCM_RIGHTS descriptor accompanies
};

Status
sendMsg(int fd, const MsgHeader &header, const void *payload,
        int pass_fd = -1)
{
    struct iovec iov[2];
    iov[0].iov_base = const_cast<MsgHeader *>(&header);
    iov[0].iov_len = sizeof(header);
    iov[1].iov_base = const_cast<void *>(payload);
    iov[1].iov_len = header.payload;

    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = header.payload > 0 ? 2 : 1;

    alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))] = {};
    if (pass_fd >= 0) {
        msg.msg_control = cbuf;
        msg.msg_controllen = sizeof(cbuf);
        struct cmsghdr *cm = CMSG_FIRSTHDR(&msg);
        cm->cmsg_level = SOL_SOCKET;
        cm->cmsg_type = SCM_RIGHTS;
        cm->cmsg_len = CMSG_LEN(sizeof(int));
        std::memcpy(CMSG_DATA(cm), &pass_fd, sizeof(int));
    }
    for (;;) {
        ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n >= 0)
            return Status::ok();
        if (errno != EINTR)
            return Status::fromErrno();
    }
}

struct ReceivedMsg {
    MsgHeader header;
    std::vector<std::uint8_t> payload;
    Fd fd;
};

Result<ReceivedMsg>
recvMsg(int fd)
{
    ReceivedMsg out;
    std::uint8_t buf[sizeof(MsgHeader) + kMaxInline];
    struct iovec iov = {buf, sizeof(buf)};
    struct msghdr msg = {};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))] = {};
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);

    ssize_t n;
    for (;;) {
        n = ::recvmsg(fd, &msg, 0);
        if (n >= 0)
            break;
        if (errno != EINTR)
            return errnoResult<ReceivedMsg>();
    }
    if (n == 0)
        return Result<ReceivedMsg>(Errno{EPIPE});
    if (static_cast<std::size_t>(n) < sizeof(MsgHeader))
        return Result<ReceivedMsg>(Errno{EPROTO});
    std::memcpy(&out.header, buf, sizeof(MsgHeader));
    out.payload.assign(buf + sizeof(MsgHeader), buf + n);
    struct cmsghdr *cm = CMSG_FIRSTHDR(&msg);
    if (cm && cm->cmsg_type == SCM_RIGHTS) {
        int got = -1;
        std::memcpy(&got, CMSG_DATA(cm), sizeof(int));
        out.fd = Fd(got);
    }
    return out;
}

/** Leader-side length of one OUT chunk (mirrors the core engine). */
std::uint32_t
outLen(const sys::OutBufferSpec &spec, const std::uint64_t args[6],
       long result)
{
    if (spec.arg < 0 || args[spec.arg] == 0)
        return 0;
    switch (spec.len_from) {
      case sys::LenFrom::Result:
        return result > 0 ? static_cast<std::uint32_t>(result) : 0;
      case sys::LenFrom::ResultTimesSize:
        return result > 0 ? static_cast<std::uint32_t>(result) * spec.fixed
                          : 0;
      case sys::LenFrom::Arg:
        return static_cast<std::uint32_t>(args[spec.len_arg]) * spec.fixed;
      case sys::LenFrom::Fixed:
        return result >= 0 ? spec.fixed : 0;
      case sys::LenFrom::DerefArg: {
        if (args[spec.len_arg] == 0 || result < 0)
            return 0;
        std::uint32_t n;
        std::memcpy(&n, reinterpret_cast<const void *>(args[spec.len_arg]),
                    sizeof(n));
        return n;
      }
      default:
        return 0;
    }
}

/** Dispatcher installed in each lockstep variant. */
class LockstepClient : public sys::Dispatcher
{
  public:
    LockstepClient(int socket, int variant)
        : socket_(socket), variant_(variant)
    {
    }

    long
    dispatch(long nr, const std::uint64_t args[6]) override
    {
        const sys::SyscallInfo &info = sys::syscallInfo(nr);

        // Request: the "trap into the monitor".
        MsgHeader req = {};
        req.kind = MsgKind::Request;
        req.variant = variant_;
        req.nr = nr;
        for (int i = 0; i < 6; ++i)
            req.args[i] = args[i];
        if (!sendMsg(socket_, req, nullptr).isOk())
            ::_exit(70);

        auto reply = recvMsg(socket_);
        if (!reply.ok())
            ::_exit(71);
        MsgHeader &h = reply.value().header;

        switch (h.kind) {
          case MsgKind::GoLocal:
            return sys::rawSyscall(nr, args[0], args[1], args[2], args[3],
                                   args[4], args[5]);
          case MsgKind::GoExecute: {
            long result = sys::rawSyscall(nr, args[0], args[1], args[2],
                                          args[3], args[4], args[5]);
            MsgHeader done = {};
            done.kind = MsgKind::ExecDone;
            done.variant = variant_;
            done.nr = nr;
            done.result = result;
            const void *payload = nullptr;
            std::uint32_t len = outLen(info.out[0], args, result);
            if (len > kMaxInline)
                len = 0; // cap for the baseline; fine for benches
            if (len > 0) {
                payload = reinterpret_cast<const void *>(
                    args[info.out[0].arg]);
                done.payload = len;
            }
            int pass = -1;
            if (info.cls == sys::SyscallClass::FdCreating && result >= 0) {
                pass = static_cast<int>(result);
                done.sends_fd = 1;
            }
            sendMsg(socket_, done, payload, pass);
            // The executor already holds the authoritative result; the
            // monitor broadcasts Result only to the other variants, so
            // skipping the echo saves one context switch per executed
            // call (the same sync-amortization idea as ring batching).
            return result;
          }
          case MsgKind::Result: {
            // Copy OUT data delivered by the monitor.
            if (h.payload > 0 && info.out[0].arg >= 0 &&
                args[info.out[0].arg] != 0) {
                std::memcpy(reinterpret_cast<void *>(args[info.out[0].arg]),
                            reply.value().payload.data(), h.payload);
                if (info.out[0].len_from == sys::LenFrom::DerefArg &&
                    args[info.out[0].len_arg] != 0) {
                    std::uint32_t n = h.payload;
                    std::memcpy(
                        reinterpret_cast<void *>(args[info.out[0].len_arg]),
                        &n, sizeof(n));
                }
            }
            if (reply.value().fd.valid() && h.result >= 0) {
                int target = static_cast<int>(h.result);
                if (reply.value().fd.get() != target)
                    sys::rawSyscall(SYS_dup2, reply.value().fd.get(),
                                    target);
                else
                    reply.value().fd.release();
            }
            if (nr == SYS_close)
                sys::rawSyscall(SYS_close, args[0]);
            return h.result;
          }
          case MsgKind::Killed:
          default:
            ::_exit(73);
        }
    }

  private:
    int socket_;
    int variant_;
};

} // namespace

LockstepEngine::LockstepEngine(Options options) : options_(options) {}

std::vector<VariantResult>
LockstepEngine::run(std::vector<VariantFn> variants)
{
    const std::size_t n = variants.size();
    VARAN_CHECK(n >= 1 && n <= 16);

    std::vector<SocketPair> pairs;
    pairs.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        auto pair = SocketPair::create(SOCK_SEQPACKET);
        VARAN_CHECK(pair.ok());
        pairs.push_back(std::move(pair.value()));
    }

    std::vector<pid_t> pids(n, -1);
    for (std::size_t v = 0; v < n; ++v) {
        pid_t pid = ::fork();
        VARAN_CHECK(pid >= 0);
        if (pid == 0) {
            // Own process group: a variant outside the single-process
            // contract may fork helpers that share its socket; group
            // kill is the only way the monitor can reap the subtree.
            ::setpgid(0, 0);
            for (std::size_t o = 0; o < n; ++o) {
                pairs[o].end(0).reset();
                if (o != v)
                    pairs[o].end(1).reset();
            }
            LockstepClient client(pairs[v].end(1).get(),
                                  static_cast<int>(v));
            sys::setDispatcher(&client);
            int status = variants[v]();
            sys::setDispatcher(nullptr);
            ::_exit(status & 0xff);
        }
        pids[v] = pid;
        ::setpgid(pid, pid); // races benignly with the child's setpgid
        pairs[v].end(1).reset();
    }

    // ---- the centralised monitor loop ----
    std::vector<bool> alive(n, true);
    std::vector<bool> pending(n, false);
    std::vector<ReceivedMsg> requests(n);
    std::size_t live_count = n;

    auto barrier_full = [&]() {
        for (std::size_t v = 0; v < n; ++v) {
            if (alive[v] && !pending[v])
                return false;
        }
        return true;
    };

    const std::uint64_t deadline =
        monotonicNs() + options_.progress_timeout_ns;
    while (live_count > 0 && monotonicNs() < deadline) {
        std::vector<struct pollfd> pfds;
        std::vector<std::size_t> owner;
        for (std::size_t v = 0; v < n; ++v) {
            if (alive[v] && !pending[v]) {
                pfds.push_back({pairs[v].end(0).get(), POLLIN, 0});
                owner.push_back(v);
            }
        }
        if (!pfds.empty()) {
            int ready = ::poll(pfds.data(), pfds.size(), 100);
            if (ready < 0 && errno != EINTR)
                break;
            for (std::size_t i = 0; i < pfds.size(); ++i) {
                if (!(pfds[i].revents & (POLLIN | POLLHUP)))
                    continue;
                std::size_t v = owner[i];
                auto msg = recvMsg(pairs[v].end(0).get());
                if (!msg.ok()) {
                    alive[v] = false;
                    --live_count;
                    continue;
                }
                requests[v] = std::move(msg.value());
                pending[v] = true;
            }
        }
        if (live_count == 0 || !barrier_full())
            continue;

        // All live variants are stopped at a syscall: the lockstep
        // point. Check they agree.
        long nr = -1;
        bool diverged = false;
        for (std::size_t v = 0; v < n; ++v) {
            if (!alive[v])
                continue;
            if (nr == -1)
                nr = requests[v].header.nr;
            else if (requests[v].header.nr != nr)
                diverged = true;
        }
        if (diverged && options_.strict_lockstep) {
            // Classic behaviour: terminate disagreeing followers (the
            // executor's stream wins).
            long canon = -1;
            for (std::size_t v = 0; v < n; ++v) {
                if (alive[v]) {
                    canon = requests[v].header.nr;
                    break;
                }
            }
            for (std::size_t v = 0; v < n; ++v) {
                if (!alive[v] || requests[v].header.nr == canon)
                    continue;
                MsgHeader kill = {};
                kill.kind = MsgKind::Killed;
                sendMsg(pairs[v].end(0).get(), kill, nullptr);
                pending[v] = false;
                alive[v] = false;
                --live_count;
            }
        }

        const sys::SyscallInfo &info = sys::syscallInfo(nr);
        ++monitored_calls_;

        if (info.cls == sys::SyscallClass::Local ||
            info.cls == sys::SyscallClass::Unhandled ||
            info.cls == sys::SyscallClass::Fork ||
            info.cls == sys::SyscallClass::Exit) {
            for (std::size_t v = 0; v < n; ++v) {
                if (!alive[v] || !pending[v])
                    continue;
                MsgHeader go = {};
                go.kind = MsgKind::GoLocal;
                sendMsg(pairs[v].end(0).get(), go, nullptr);
                pending[v] = false;
            }
            continue;
        }

        // Pick the lowest live variant as executor.
        std::size_t executor = 0;
        while (executor < n && !alive[executor])
            ++executor;
        MsgHeader go = {};
        go.kind = MsgKind::GoExecute;
        sendMsg(pairs[executor].end(0).get(), go, nullptr);
        // Bounded wait for the execution result: a variant outside the
        // engine's contract (one that forked helpers sharing its
        // socket, or a server wedged in a blocking call) might never
        // answer, and an unbounded recvMsg here would hang the whole
        // bench past the engine's own progress deadline. Error events
        // (POLLERR/POLLNVAL) fall through to recvMsg, which fails and
        // retires just this variant — the run continues.
        struct pollfd epfd = {pairs[executor].end(0).get(), POLLIN, 0};
        while (epfd.revents == 0 && monotonicNs() < deadline) {
            int r = ::poll(&epfd, 1, 100);
            if (r < 0 && errno != EINTR)
                break;
        }
        if (epfd.revents == 0)
            break; // deadline expired: fall through to the kill path
        auto done = recvMsg(pairs[executor].end(0).get());
        if (!done.ok()) {
            alive[executor] = false;
            --live_count;
            pending[executor] = false;
            continue;
        }
        // The executor resumed itself on ExecDone; only the remaining
        // variants need the Result broadcast.
        pending[executor] = false;

        MsgHeader result = {};
        result.kind = MsgKind::Result;
        result.nr = nr;
        result.result = done.value().header.result;
        result.payload = done.value().header.payload;
        for (std::size_t v = 0; v < n; ++v) {
            if (!alive[v] || !pending[v])
                continue;
            int pass = -1;
            if (done.value().fd.valid())
                pass = done.value().fd.get();
            sendMsg(pairs[v].end(0).get(), result,
                    done.value().payload.data(), pass);
            pending[v] = false;
        }
    }

    // Reap in two steps. First poll with WNOHANG for a short grace
    // period: a follower just sent Killed is on its way to _exit(73),
    // and a SIGKILL now would overwrite that status. Then kill the
    // process group of every variant: one still running may be parked
    // in recvmsg, or have forked helpers that share its socket and
    // broke the protocol, and would wedge the blocking waitpid below
    // forever; an exited one may have left such helpers behind.
    std::vector<VariantResult> results(n);
    std::vector<bool> reaped(n, false);
    auto reap = [&](std::size_t v, int flags) {
        int status = 0;
        if (::waitpid(pids[v], &status, flags) != pids[v])
            return;
        reaped[v] = true;
        results[v].crashed = WIFSIGNALED(status);
        results[v].status = WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                                : WEXITSTATUS(status);
    };
    const std::uint64_t grace_end = monotonicNs() + kReapGraceNs;
    for (;;) {
        bool all_reaped = true;
        for (std::size_t v = 0; v < n; ++v) {
            if (!reaped[v])
                reap(v, WNOHANG);
            all_reaped = all_reaped && reaped[v];
        }
        if (all_reaped || monotonicNs() >= grace_end)
            break;
        sleepNs(1000000);
    }
    for (std::size_t v = 0; v < n; ++v) {
        results[v].variant = static_cast<int>(v);
        if (pids[v] > 0)
            ::kill(-pids[v], SIGKILL);
        if (!reaped[v])
            reap(v, 0);
    }
    return results;
}

PtraceCost
measurePtraceCost(std::size_t iterations)
{
    PtraceCost cost;

    // Native: tight getpid loop.
    {
        std::uint64_t t0 = rdtsc();
        for (std::size_t i = 0; i < iterations; ++i)
            sys::rawSyscall(SYS_getpid);
        cost.native_cycles_per_call =
            double(rdtsc() - t0) / double(iterations);
    }

    // Traced: the same loop under PTRACE_SYSCALL supervision.
    int fds[2];
    if (::pipe(fds) < 0)
        return cost;
    pid_t child = ::fork();
    if (child < 0)
        return cost;
    if (child == 0) {
        ::close(fds[0]);
        ::ptrace(PTRACE_TRACEME, 0, nullptr, nullptr);
        ::raise(SIGSTOP);
        std::uint64_t t0 = rdtsc();
        for (std::size_t i = 0; i < iterations; ++i)
            sys::rawSyscall(SYS_getpid);
        std::uint64_t dt = rdtsc() - t0;
        [[maybe_unused]] ssize_t n = ::write(fds[1], &dt, sizeof(dt));
        ::_exit(0);
    }
    ::close(fds[1]);
    int status = 0;
    ::waitpid(child, &status, 0); // SIGSTOP
    bool ok = true;
    if (::ptrace(PTRACE_SYSCALL, child, nullptr, nullptr) < 0)
        ok = false;
    while (ok) {
        if (::waitpid(child, &status, 0) < 0)
            break;
        if (WIFEXITED(status) || WIFSIGNALED(status))
            break;
        if (::ptrace(PTRACE_SYSCALL, child, nullptr, nullptr) < 0)
            break;
    }
    std::uint64_t dt = 0;
    if (ok && ::read(fds[0], &dt, sizeof(dt)) == sizeof(dt)) {
        cost.traced_cycles_per_call = double(dt) / double(iterations);
        cost.ptrace_available = true;
    }
    ::close(fds[0]);
    ::waitpid(child, &status, WNOHANG);
    return cost;
}

} // namespace varan::lockstep
