/**
 * @file
 * syscall_storm: a tight loop of seeded system calls inside the engine
 * (1 leader + 2 followers), and the same loop natively in a forked
 * process. Interception, classification, the ring, the payload pool
 * and follower replay do nearly all the work.
 *
 * The loop runs in blocks of kBlock calls and reads the clock through
 * the engine after each block, so every variant sees the leader's time
 * and leaves each phase at the same call: the variants stay in step
 * while the run stays bounded in time. Every kBlock calls one
 * open/close pair moves a descriptor from the leader to the followers.
 */

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "benchutil/stats.h"
#include "core/nvx.h"
#include "syscalls/sys.h"
#include "workloads.h"

namespace vb {
namespace {

using varan::core::Nvx;
using varan::core::StatusReport;
namespace sys = varan::sys;

constexpr std::size_t kBlock = 4096;        ///< calls per clock check
constexpr std::size_t kPlan = 1u << 16;     ///< seeded op sequence length
constexpr std::uint64_t kSampleMask = 63;   ///< time 1 call in 64
constexpr std::uint64_t kSpanMask = 4095;   ///< span 1 call in 4096
/** The latency a program sees is timed over runs of kGroup calls, once
 *  every 64 calls: per call, the mix is bimodal (cheap getpid/close,
 *  dearer read/write) and its median sits between the modes, where a
 *  small shift moves it far; a run of 8 averages the mix away. */
constexpr std::uint64_t kGroup = 8;
constexpr std::uint64_t kGroupStart = 32;
/** Throughput is booked per sub-window of the leader's clock; the run
 *  reports the median sub-window. */
constexpr double kSubWindowSec = 0.25;
constexpr std::size_t kMaxSubWindows = 512;
/** Traced runs switch span recording on and off in slices of this
 *  length; trace_overhead_pct compares the two kinds of slice. */
constexpr double kTraceSliceSec = 0.25;
constexpr std::size_t kIoBytes = 512;
constexpr int kFollowers = 2;
constexpr int kSlots = 1 + 1 + kFollowers;  ///< native + variants

enum Op : std::uint8_t { kGetpid, kCloseBad, kRead, kWrite };
enum Class : std::uint32_t { kPlain, kReadClass, kWriteClass, kFd, kClasses };

/** What one loop (native or one variant) measured; MAP_SHARED. */
struct StormSlot {
    std::atomic<std::uint64_t> first_op_ns;
    std::atomic<std::uint32_t> window_started;
    std::atomic<std::uint32_t> window_done;
    std::uint64_t window_calls;
    std::uint64_t window_ns;   ///< leader's clock across the window
    double window_cpu_s;       ///< this process's CPU across the window
    std::uint64_t total_calls;
    std::uint64_t failures;
    std::uint64_t slice_calls[2]; ///< [untraced, traced] blocks
    std::uint64_t slice_ns[2];
    std::uint32_t subs;           ///< measured sub-windows
    std::uint64_t sub_calls[kMaxSubWindows];
    std::uint64_t sub_ns[kMaxSubWindows];    ///< leader's clock
    double sub_cpu_s[kMaxSubWindows];        ///< this process's CPU
    NsHistogram hist[kClasses];
    NsHistogram group;            ///< per-call time over kGroup calls
};

struct StormShared {
    StormSlot slot[kSlots]; ///< 0 = native, 1 + v = variant v
};

/** The seeded inputs, identical in every variant (fork copies them). */
struct StormPlan {
    std::uint8_t ops[kPlan];
    char write_buf[kIoBytes];
};

/** Phase lengths of one loop, in seconds. */
struct StormTimes {
    double warm = 0;
    double measure = 0;
    double cool = 0; ///< keeps the variants alive while PSS is read
};

StormPlan
makePlan(std::uint64_t seed)
{
    StormPlan plan;
    Rng rng(seed);
    for (std::uint8_t &op : plan.ops) {
        const std::uint64_t r = rng.below(100);
        op = r < 30 ? kGetpid : r < 60 ? kCloseBad : r < 80 ? kRead : kWrite;
    }
    for (char &c : plan.write_buf)
        c = static_cast<char>(rng.next());
    return plan;
}

Class
classOf(std::uint8_t op)
{
    return op == kRead ? kReadClass : op == kWrite ? kWriteClass : kPlain;
}

std::uint32_t
spanOf(Class c)
{
    return c == kPlain       ? kSpanInvokePlain
           : c == kReadClass ? kSpanInvokeRead
           : c == kWriteClass ? kSpanInvokeWrite
                              : kSpanInvokeFd;
}

/** The leader's clock, replayed to followers (a Virtual call). */
std::uint64_t
engineClockNs()
{
    struct timespec ts = {};
    sys::vclock_gettime(CLOCK_MONOTONIC, &ts);
    return std::uint64_t(ts.tv_sec) * 1000000000ULL +
           std::uint64_t(ts.tv_nsec);
}

double
ownCpuSec()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

bool
allZero(const char *buf)
{
    static const char zeros[kIoBytes] = {};
    return std::memcmp(buf, zeros, kIoBytes) == 0;
}

/** One call of the mix; @return whether its result was right. */
bool
oneCall(std::uint8_t op, int zero_fd, int null_fd, char *rbuf,
        const char *wbuf, bool check_bytes)
{
    switch (op) {
      case kGetpid:
        return sys::invoke(SYS_getpid) > 0;
      case kCloseBad:
        return sys::invoke(SYS_close, -1) == -EBADF;
      case kRead:
        if (check_bytes)
            std::memset(rbuf, 0xa5, kIoBytes);
        return sys::invoke(SYS_read, zero_fd, reinterpret_cast<long>(rbuf),
                           long(kIoBytes)) == long(kIoBytes) &&
               (!check_bytes || allZero(rbuf));
      default:
        return sys::invoke(SYS_write, null_fd, reinterpret_cast<long>(wbuf),
                           long(kIoBytes)) == long(kIoBytes);
    }
}

/** The loop itself: warm-up, measured window, cool-down. */
int
stormLoop(StormSlot &me, const StormPlan &plan, const StormTimes &times,
          std::uint32_t lane)
{
    const long zero_fd = sys::vopen("/dev/zero", O_RDONLY);
    const long null_fd = sys::vopen("/dev/null", O_WRONLY);
    if (zero_fd < 0 || null_fd < 0)
        return 4;
    char rbuf[kIoBytes];

    const std::uint64_t t0 = engineClockNs();
    const std::uint64_t window_start = t0 + std::uint64_t(times.warm * 1e9);
    const std::uint64_t window_end =
        window_start + std::uint64_t(times.measure * 1e9);
    const std::uint64_t stop = window_end + std::uint64_t(times.cool * 1e9);
    enum { Warm, Measure, Cool } phase = Warm;
    std::uint64_t calls = 0, failures = 0, i = 0;
    std::uint64_t window_calls0 = 0, window_t0 = 0;
    std::uint64_t sub_calls0 = 0, sub_t0 = 0;
    double cpu0 = 0, sub_cpu0 = 0;
    const auto kSubWindowNs = std::uint64_t(kSubWindowSec * 1e9);

    for (;;) {
        const bool traced = SpanLog::enabled();
        const std::uint64_t block_t0 = nowNs();
        std::uint64_t group_t0 = 0;
        for (std::size_t k = 0; k < kBlock; ++k, ++i) {
            const std::uint8_t op = plan.ops[i & (kPlan - 1)];
            const std::uint64_t pos = i & kSampleMask;
            if (pos != 0) {
                if (pos == kGroupStart)
                    group_t0 = nowNs();
                failures += !oneCall(op, int(zero_fd), int(null_fd), rbuf,
                                     plan.write_buf, false);
                if (pos == kGroupStart + kGroup - 1)
                    me.group.add((nowNs() - group_t0) / kGroup);
                continue;
            }
            const std::uint64_t a = nowNs();
            failures += !oneCall(op, int(zero_fd), int(null_fd), rbuf,
                                 plan.write_buf, true);
            const std::uint64_t b = nowNs();
            me.hist[classOf(op)].add(b - a);
            if (i == 0) // call 0 is always timed: the set-up endpoint
                me.first_op_ns.store(b, std::memory_order_release);
            if (traced && (i & kSpanMask) == 0) {
                SpanLog::record(spanOf(classOf(op)), lane, a, b,
                                SpanLog::nextId(), 0, i);
            }
        }
        // One descriptor transfer per block: open + close, timed whole.
        const std::uint64_t a = nowNs();
        const long fd = sys::vopen("/dev/null", O_RDONLY);
        const long closed = fd >= 0 ? sys::vclose(int(fd)) : -1;
        const std::uint64_t b = nowNs();
        me.hist[kFd].add(b - a);
        if (traced)
            SpanLog::record(kSpanInvokeFd, lane, a, b, SpanLog::nextId(), 0, i);
        failures += fd < 0 || closed != 0;
        calls += kBlock + 2;
        if (phase == Measure) {
            me.slice_calls[traced] += kBlock + 2;
            me.slice_ns[traced] += nowNs() - block_t0;
        }

        const std::uint64_t t = engineClockNs();
        if (phase == Warm && t >= window_start) {
            phase = Measure;
            window_calls0 = sub_calls0 = calls;
            window_t0 = sub_t0 = t;
            cpu0 = sub_cpu0 = ownCpuSec();
            me.window_started.store(1, std::memory_order_release);
        }
        if (phase == Measure &&
            (t >= window_end || t - sub_t0 >= kSubWindowNs) &&
            me.subs < kMaxSubWindows) {
            const double cpu = ownCpuSec();
            me.sub_calls[me.subs] = calls - sub_calls0;
            me.sub_ns[me.subs] = t - sub_t0;
            me.sub_cpu_s[me.subs] = cpu - sub_cpu0;
            ++me.subs;
            sub_calls0 = calls;
            sub_t0 = t;
            sub_cpu0 = cpu;
        }
        if (phase == Measure && t >= window_end) {
            phase = Cool;
            me.window_calls = calls - window_calls0;
            me.window_ns = t - window_t0;
            me.window_cpu_s = ownCpuSec() - cpu0;
            me.window_done.store(1, std::memory_order_release);
        }
        if (phase == Cool && t >= stop)
            break;
    }
    me.total_calls = calls;
    me.failures = failures;
    sys::vclose(int(zero_fd));
    sys::vclose(int(null_fd));
    return failures == 0 ? 0 : 3;
}

/** Seconds from start() returning to the leader's first call, which
 *  can come first: the leader runs as soon as it is spawned. */
double
sinceStart(std::uint64_t first_op_ns, std::uint64_t started_ns)
{
    return first_op_ns > started_ns ? double(first_op_ns - started_ns) / 1e9
                                    : 0.0;
}

/** Poll @p flag until set or @p timeout_s passes. */
bool
awaitFlag(const std::atomic<std::uint32_t> &flag, double timeout_s,
          const std::function<void()> &each_ms = {})
{
    const std::uint64_t deadline = nowNs() + std::uint64_t(timeout_s * 1e9);
    while (flag.load(std::memory_order_acquire) == 0) {
        if (nowNs() >= deadline)
            return false;
        if (each_ms)
            each_ms();
        ::usleep(1000);
    }
    return true;
}

/** A started storm engine: Nvx + set-up timestamps. */
struct StormEngine {
    std::unique_ptr<Nvx> nvx;
    std::uint64_t t0 = 0;
    std::uint64_t started = 0;
};

StormEngine
startStorm(StormShared *shared, const StormPlan *plan, StormTimes times)
{
    for (int i = 1; i < kSlots; ++i)
        new (&shared->slot[i]) StormSlot{};
    StormEngine e;
    e.t0 = nowNs();
    e.nvx = std::make_unique<Nvx>(varan::core::EngineConfig{});
    auto entry = [shared, plan, times] {
        const std::uint32_t v =
            varan::core::Monitor::instance()->variantId();
        return stormLoop(shared->slot[1 + v], *plan, times, kLaneVariant0 + v);
    };
    std::vector<varan::core::VariantFn> variants(kFollowers + 1, entry);
    if (!e.nvx->start(std::move(variants)).isOk())
        e.nvx.reset();
    e.started = nowNs();
    SpanLog::record(kSpanNvxStart, kLaneDriver, e.t0, e.started,
                    SpanLog::nextId(), 0, 0);
    return e;
}

/** Wait for every variant; with @p check, record how they ended. */
void
finishStorm(StormEngine &e, StormShared *shared, double timeout_s,
            Report &report, bool check)
{
    const std::uint64_t w = nowNs();
    auto results = e.nvx->waitFor(std::uint64_t(timeout_s * 1e9));
    SpanLog::record(kSpanNvxWaitFor, kLaneDriver, w, nowNs(),
                    SpanLog::nextId(), 0, 0);
    if (check) {
        const StatusReport s = e.nvx->status();
        checkEngineEnd(results, s, report);
        bool equal = true;
        std::string counts;
        for (int v = 0; v <= kFollowers; ++v) {
            equal = equal && shared->slot[1 + v].total_calls ==
                                 shared->slot[1].total_calls;
            counts += std::to_string(shared->slot[1 + v].total_calls) + " ";
        }
        report.check("variant_loop_calls_equal", equal, counts);
        std::uint64_t failures = 0;
        for (int v = 0; v <= kFollowers; ++v)
            failures += shared->slot[1 + v].failures;
        report.check("call_results_correct", failures == 0,
                     std::to_string(failures) + " wrong");
    }
    e.nvx.reset();
}

} // namespace

void
runSyscallStorm(const Params &params, Report &report)
{
    using varan::bench::median;
    const auto plan_owner = std::make_unique<StormPlan>(makePlan(params.seed));
    const StormPlan *plan = plan_owner.get();
    // Mapped before any fork so the native process and every variant
    // write their slot where this process reads it.
    void *mem = ::mmap(nullptr, sizeof(StormShared), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        report.check("shared_map", false);
        return;
    }
    const std::unique_ptr<void, std::function<void(void *)>> unmap(
        mem, [](void *p) { ::munmap(p, sizeof(StormShared)); });
    auto *shared = static_cast<StormShared *>(mem);
    const double native_s = params.seconds * 0.25;
    const double engine_s = params.seconds * 0.75;

    // --- set-up: construct + start until the leader's first call ------
    std::vector<double> setup, start, first_op, teardown;
    for (int i = 0; i < kSetupReps; ++i) {
        StormEngine e = startStorm(shared, plan, StormTimes{});
        if (!e.nvx) {
            report.check("engine_start", false);
            return;
        }
        const bool ok = awaitFlag(shared->slot[1].window_done, 10.0);
        const std::uint64_t first = shared->slot[1].first_op_ns.load();
        const std::uint64_t t = nowNs();
        finishStorm(e, shared, 10.0, report, false);
        if (!ok || first == 0) {
            report.check("setup", false, "leader never ran");
            return;
        }
        setup.push_back(double(first - e.t0) / 1e9);
        start.push_back(double(e.started - e.t0) / 1e9);
        first_op.push_back(sinceStart(first, e.started));
        teardown.push_back(double(nowNs() - t) / 1e9);
    }

    // --- native: the same loop in a plain forked process --------------
    StormSlot &native = shared->slot[0];
    {
        pid_t pid = ::fork();
        if (pid == 0) {
            ::_exit(stormLoop(native, *plan, {kWarmupSec, native_s, 0},
                              kLaneNative));
        }
        int status = 0;
        const std::uint64_t deadline =
            nowNs() + std::uint64_t((kWarmupSec + native_s + 30) * 1e9);
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (nowNs() >= deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            ::usleep(2000);
        }
        report.attempted(native.total_calls);
        report.check("native_exit_0",
                     WIFEXITED(status) && WEXITSTATUS(status) == 0,
                     std::to_string(native.failures) + " wrong");
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            report.failed(std::max<std::uint64_t>(native.failures, 1));
            return;
        }
    }

    // --- engine -------------------------------------------------------
    StormEngine e = startStorm(shared, plan, {kWarmupSec, engine_s, 0.5});
    if (!e.nvx) {
        report.check("engine_start", false);
        return;
    }
    StormSlot &leader = shared->slot[1];
    const StatusReport first = e.nvx->status();
    const double run_timeout = kWarmupSec + engine_s + 30;
    std::unique_ptr<PeriodicSampler> sampler;
    StatusReport s0 = {}, s1 = {};
    double coord0 = 0, coord1 = 0;
    EnginePss pss;
    const EngineProcs procs = EngineProcs::of(first);
    auto coordinatorCpu = [&] {
        return procs.cpu({::getpid(), sampler ? sampler->tid() : 0})
            .coordinator;
    };

    bool ran = awaitFlag(leader.window_started, run_timeout);
    if (ran) {
        if (params.traced) {
            const Nvx *nvx = e.nvx.get();
            sampler = std::make_unique<PeriodicSampler>([nvx] {
                std::uint64_t lag = 0;
                for (std::uint32_t v = 1; v <= kFollowers; ++v)
                    lag = std::max(lag, nvx->ringLagOf(v));
                return double(lag);
            });
        }
        s0 = e.nvx->status();
        coord0 = coordinatorCpu();
        const std::uint64_t window_t0 = nowNs();
        // Traced runs alternate span recording in slices; the leader
        // books its calls per kind of slice.
        ran = awaitFlag(leader.window_done, run_timeout, [&] {
            if (params.traced) {
                const double t = double(nowNs() - window_t0) / 1e9;
                SpanLog::enable((int(t / kTraceSliceSec) & 1) == 1);
            }
        });
        SpanLog::enable(params.traced);
        s1 = e.nvx->status();
        coord1 = coordinatorCpu();
        if (sampler)
            sampler->stop();
        pss = procs.pss();
    }
    const std::uint64_t first_op_ns = leader.first_op_ns.load();
    finishStorm(e, shared, ran ? 30.0 : 1.0, report, true);
    if (first_op_ns != 0) {
        setup.push_back(double(first_op_ns - e.t0) / 1e9);
        start.push_back(double(e.started - e.t0) / 1e9);
        first_op.push_back(sinceStart(first_op_ns, e.started));
    }

    std::uint64_t failures = 0;
    for (int v = 0; v <= kFollowers; ++v)
        failures += shared->slot[1 + v].failures;
    report.attempted(leader.total_calls);
    report.failed(failures);
    report.check("window_measured", ran);
    if (!ran || !report.allChecksOk())
        return;

    const double ops = double(leader.window_calls);
    EngineCpu cpu;
    cpu.leader = leader.window_cpu_s;
    for (int v = 1; v <= kFollowers; ++v)
        cpu.followers += shared->slot[1 + v].window_cpu_s;
    cpu.coordinator = coord1 - coord0;

    // Medians over sub-windows: a sub-window's calls/s, and its CPU per
    // call summed over the variants (they share sub-window boundaries),
    // plus the coordinator's share of the whole window.
    std::vector<double> engine_rates, native_rates, cpu_per_call;
    for (std::uint32_t k = 0; k < leader.subs; ++k) {
        if (leader.sub_calls[k] == 0)
            continue;
        engine_rates.push_back(double(leader.sub_calls[k]) /
                               (double(leader.sub_ns[k]) / 1e9));
        double sub_cpu = 0;
        for (int v = 0; v <= kFollowers; ++v)
            sub_cpu += shared->slot[1 + v].sub_cpu_s[k];
        cpu_per_call.push_back(sub_cpu * 1e6 / double(leader.sub_calls[k]) +
                               cpu.coordinator * 1e6 / ops);
    }
    for (std::uint32_t k = 0; k < native.subs; ++k) {
        if (native.sub_calls[k] != 0)
            native_rates.push_back(double(native.sub_calls[k]) /
                                   (double(native.sub_ns[k]) / 1e9));
    }
    const double engine_rate = median(engine_rates);

    if (!params.traced) {
        report.metric("setup_s", median(setup), "s");
        report.metric("ops_per_s", engine_rate, "ops/s");
        report.metric("overhead_x", median(native_rates) / engine_rate, "x");
        report.metric("lat_p50_us", leader.group.percentile(50) / 1e3, "us");
        report.metric("lat_p90_us", leader.group.percentile(90) / 1e3, "us");
        report.metric("cpu_us_per_op", median(cpu_per_call), "us");
        report.metric("mem_mb", pss.total(), "MB");
    } else {
        report.metric("client.attempted", double(leader.total_calls),
                      "count");
        report.metric("client.failed", double(failures), "count");
        report.metric("client.late_p99_us", 0, "us");
        report.metric("client.lat_p99_us", leader.group.percentile(99) / 1e3,
                      "us");
        report.metric("client.busy_share",
                      leader.window_cpu_s / (double(leader.window_ns) / 1e9),
                      "ratio");
        static const char *const kClassNames[kClasses] = {"plain", "read",
                                                          "write", "fd"};
        for (std::uint32_t c = 0; c < kClasses; ++c) {
            auto followers =
                std::make_unique<NsHistogram>(shared->slot[2].hist[c]);
            for (int v = 2; v <= kFollowers; ++v)
                followers->merge(shared->slot[1 + v].hist[c]);
            const std::string suffix = std::string("_ns_p50.") +
                                       kClassNames[c];
            report.metric("syscalls.native" + suffix,
                          native.hist[c].percentile(50), "ns");
            report.metric("syscalls.leader" + suffix,
                          leader.hist[c].percentile(50), "ns");
            report.metric("syscalls.follower" + suffix,
                          followers->percentile(50), "ns");
        }
        reportCore(double(s1.events_streamed - s0.events_streamed), s1, ops,
                   cpu, report);
        reportRing(s1, sampler->samples(), report);
        reportEngineTrace(
            double(s1.trace.trace_records - s0.trace.trace_records), s1,
            report);
        reportPool(s1.pool, report);
        reportSetup(start, first_op, teardown, report);
        reportMem(pss, report);
        auto rate = [&](int traced) {
            return leader.slice_ns[traced] == 0
                       ? 0.0
                       : double(leader.slice_calls[traced]) /
                             (double(leader.slice_ns[traced]) / 1e9);
        };
        reportTraceOverhead(rate(0), rate(1), report);
    }
}

} // namespace vb
