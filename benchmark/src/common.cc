#include "bench.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "benchutil/stats.h"

namespace vb {

std::uint64_t
nowNs()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::uint64_t(ts.tv_sec) * 1000000000ULL +
           std::uint64_t(ts.tv_nsec);
}

// --- Report ----------------------------------------------------------

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_ok_ = checks_ok_ && ok;
    checks_.push_back(name + (ok ? " ok" : " FAIL") +
                      (detail.empty() ? "" : " " + detail));
    if (!ok)
        std::fprintf(stderr, "varanbench: check failed: %s %s\n",
                     name.c_str(), detail.c_str());
}

void
Report::print() const
{
    for (const Line &m : metrics_)
        std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &c : checks_)
        std::printf("check %s\n", c.c_str());
    std::printf("attempted %" PRIu64 "\nfailed %" PRIu64 "\n", attempted_,
                failed_);
    std::fflush(stdout);
}

// --- SpanLog ---------------------------------------------------------

namespace {

struct SpanHeader {
    std::atomic<std::uint64_t> next;
    std::atomic<std::uint64_t> dropped;
    std::atomic<std::uint64_t> ids;
    std::atomic<std::uint32_t> enabled;
    std::uint64_t capacity;
};

SpanHeader *g_spans = nullptr;

Span *
spanArray()
{
    return reinterpret_cast<Span *>(g_spans + 1);
}

const char *const kSpanNames[kSpanCount] = {
    "request",          "nvx.start",        "nvx.status",
    "nvx.waitFor",      "sys.invoke.plain", "sys.invoke.read",
    "sys.invoke.write", "sys.invoke.fd",    "ring.claim",
    "ring.commit",      "pool.allocate",    "pool.release",
    "ring.peekBatch",   "ring.advanceBy",
};

} // namespace

const char *
spanName(std::uint32_t name)
{
    return name < kSpanCount ? kSpanNames[name] : "?";
}

void
SpanLog::init(std::size_t capacity)
{
    if (g_spans != nullptr)
        return;
    const std::size_t bytes = sizeof(SpanHeader) + capacity * sizeof(Span);
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        return;
    g_spans = new (mem) SpanHeader();
    g_spans->capacity = capacity;
}

void
SpanLog::enable(bool on)
{
    if (g_spans != nullptr)
        g_spans->enabled.store(on ? 1 : 0, std::memory_order_release);
}

bool
SpanLog::enabled()
{
    return g_spans != nullptr &&
           g_spans->enabled.load(std::memory_order_relaxed) != 0;
}

std::uint64_t
SpanLog::nextId()
{
    return g_spans == nullptr
               ? 0
               : g_spans->ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
SpanLog::record(std::uint32_t name, std::uint32_t lane, std::uint64_t start,
                std::uint64_t end, std::uint64_t id, std::uint64_t parent,
                std::uint64_t req)
{
    if (g_spans == nullptr)
        return;
    std::uint64_t slot = g_spans->next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= g_spans->capacity) {
        g_spans->dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    spanArray()[slot] = Span{name, lane, start, end, id, parent, req};
}

std::uint64_t
SpanLog::dropped()
{
    return g_spans == nullptr
               ? 0
               : g_spans->dropped.load(std::memory_order_relaxed);
}

bool
SpanLog::writeChrome(const std::string &path,
                     const std::vector<std::string> &lane_names)
{
    if (g_spans == nullptr)
        return false;
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::uint64_t n = g_spans->next.load(std::memory_order_acquire);
    if (n > g_spans->capacity)
        n = g_spans->capacity;
    // Timestamps are relative to the first span so the viewer opens at
    // the start of the run.
    std::uint64_t t0 = ~0ULL;
    for (std::uint64_t i = 0; i < n; ++i)
        t0 = std::min(t0, spanArray()[i].start);
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"otherData\":"
                      "{\"dropped_spans\":%" PRIu64 "},\"traceEvents\":[\n",
                 dropped());
    bool first = true;
    for (std::size_t l = 0; l < lane_names.size(); ++l) {
        std::fprintf(out,
                     "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                     "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     first ? "" : ",\n", l, lane_names[l].c_str());
        first = false;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        const Span &s = spanArray()[i];
        if (s.end < s.start)
            continue; // torn: the writer died mid-record
        std::fprintf(out,
                     "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                     ",\"parent\":%" PRIu64 ",\"req\":%" PRIu64 "}}",
                     first ? "" : ",\n", spanName(s.name), s.lane,
                     double(s.start - t0) / 1e3,
                     double(s.end - s.start) / 1e3, s.id, s.parent, s.req);
        first = false;
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

// --- /proc readers ---------------------------------------------------

namespace {

double
cpuClockSec(clockid_t clock)
{
    struct timespec ts;
    if (::clock_gettime(clock, &ts) != 0)
        return 0;
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/** The kernel's CPU-clock encoding (posix-cpu-timers): per-process
 *  and per-thread scheduler clocks of any visible task. */
clockid_t
cpuClockOf(pid_t id, bool thread)
{
    return static_cast<clockid_t>((~static_cast<unsigned>(id) << 3) |
                                  (thread ? 6u : 2u));
}

} // namespace

double
processCpuSec(pid_t pid)
{
    return pid > 0 ? cpuClockSec(cpuClockOf(pid, false)) : 0;
}

double
threadCpuSec(pid_t tid)
{
    return tid > 0 ? cpuClockSec(cpuClockOf(tid, true)) : 0;
}

double
selfThreadCpuSec()
{
    return cpuClockSec(CLOCK_THREAD_CPUTIME_ID);
}

std::vector<pid_t>
threadIds()
{
    std::vector<pid_t> out;
    DIR *dir = ::opendir("/proc/self/task");
    if (dir == nullptr)
        return out;
    while (struct dirent *entry = ::readdir(dir)) {
        if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9')
            out.push_back(static_cast<pid_t>(std::atol(entry->d_name)));
    }
    ::closedir(dir);
    return out;
}

double
pssMb(pid_t pid)
{
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/%d/smaps_rollup", pid);
    std::FILE *f = std::fopen(path, "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "Pss:", 4) == 0) {
            kb = std::atof(line + 4);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

pid_t
parentPid(pid_t pid)
{
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
    std::FILE *f = std::fopen(path, "r");
    if (f == nullptr)
        return 0;
    char buf[512];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Field 4 follows the parenthesised command name.
    const char *close = std::strrchr(buf, ')');
    int ppid = 0;
    char state = 0;
    if (close == nullptr ||
        std::sscanf(close + 1, " %c %d", &state, &ppid) != 2)
        return 0;
    return ppid;
}

// --- histograms ------------------------------------------------------

double
log2HistogramPercentile(const std::uint64_t *buckets, std::size_t n, double p)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += buckets[i];
    if (total == 0)
        return 0;
    const double rank = p / 100.0 * double(total);
    double seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (buckets[i] == 0)
            continue;
        if (seen + double(buckets[i]) >= rank) {
            // Bucket i holds values of bit width i: [2^(i-1), 2^i).
            const double lo = i == 0 ? 0 : std::ldexp(1.0, int(i) - 1);
            const double hi = std::ldexp(1.0, int(i));
            return lo + (hi - lo) * (rank - seen) / double(buckets[i]);
        }
        seen += double(buckets[i]);
    }
    return std::ldexp(1.0, int(n) - 1);
}

double
NsHistogram::percentile(double p) const
{
    if (total == 0)
        return 0;
    const double rank = p / 100.0 * double(total);
    double seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (counts[b] == 0)
            continue;
        if (seen + double(counts[b]) >= rank) {
            return (double(b) + (rank - seen) / double(counts[b])) *
                   double(kWidthNs);
        }
        seen += double(counts[b]);
    }
    return double(kBuckets * kWidthNs);
}

void
NsHistogram::merge(const NsHistogram &other)
{
    for (std::size_t b = 0; b < kBuckets; ++b)
        counts[b] += other.counts[b];
    total += other.total;
}

std::string
endpointName(const char *tag)
{
    static int counter = 0;
    return std::string("varanbench-") + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(counter++);
}

PeriodicSampler::PeriodicSampler(std::function<double()> probe)
    : probe_(std::move(probe))
{
    thread_ = std::thread([this] {
        tid_.store(::gettid());
        while (!stop_.load()) {
            const double v = probe_();
            if (v >= 0)
                samples_.push_back(v);
            ::usleep(10000);
        }
    });
    while (tid_.load() == 0)
        ::usleep(100);
}

PeriodicSampler::~PeriodicSampler()
{
    stop();
}

void
PeriodicSampler::stop()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
}

// --- per-layer reporting ---------------------------------------------

EngineProcs
EngineProcs::of(const varan::core::StatusReport &status)
{
    EngineProcs procs;
    for (std::uint32_t v = 0; v < status.num_variants; ++v) {
        const auto pid = static_cast<pid_t>(status.variants[v].pid);
        if (v == status.leader)
            procs.leader = pid;
        else
            procs.followers.push_back(pid);
    }
    procs.zygote = parentPid(procs.leader);
    return procs;
}

EngineCpu
EngineProcs::cpu(const std::vector<pid_t> &exclude) const
{
    EngineCpu cpu;
    cpu.leader = processCpuSec(leader);
    for (pid_t pid : followers)
        cpu.followers += processCpuSec(pid);
    cpu.coordinator = processCpuSec(::getpid()) + processCpuSec(zygote);
    for (pid_t tid : exclude)
        cpu.coordinator -= threadCpuSec(tid);
    return cpu;
}

EnginePss
EngineProcs::pss() const
{
    EnginePss pss;
    pss.coordinator = pssMb(::getpid()) + (zygote > 0 ? pssMb(zygote) : 0);
    pss.leader = pssMb(leader);
    for (pid_t pid : followers)
        pss.followers += pssMb(pid);
    return pss;
}

void
checkEngineEnd(const std::vector<varan::core::VariantResult> &results,
               const varan::core::StatusReport &end, Report &report)
{
    bool clean = true;
    std::string detail;
    for (const auto &r : results) {
        if (r.crashed || r.status != 0) {
            clean = false;
            detail += "variant" + std::to_string(r.variant) + "=" +
                      std::to_string(r.status) + " ";
        }
    }
    report.check("variants_exit_0", clean, detail);
    report.check("divergences_fatal_0", end.divergences_fatal == 0,
                 std::to_string(end.divergences_fatal));
    bool equal = true;
    std::string counts;
    for (std::uint32_t v = 0; v < end.num_variants; ++v) {
        equal = equal && end.variants[v].syscalls == end.variants[0].syscalls;
        counts += std::to_string(end.variants[v].syscalls) + " ";
    }
    report.check("variant_syscalls_equal", equal, counts);
}

void
reportCore(double events, const varan::core::StatusReport &end, double ops,
           const EngineCpu &cpu, Report &report)
{
    auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0; };
    report.metric("core.events_per_op", per_op(events), "count");
    report.metric("core.leader_cpu_us_per_op", per_op(cpu.leader * 1e6),
                  "us");
    report.metric("core.follower_cpu_us_per_op", per_op(cpu.followers * 1e6),
                  "us");
    report.metric("core.coordinator_cpu_us_per_op",
                  per_op(cpu.coordinator * 1e6), "us");
    report.metric("core.fd_transfers", double(end.fd_transfers), "count");
    report.metric("core.divergences_fatal", double(end.divergences_fatal),
                  "count");
    report.metric("core.divergences_resolved",
                  double(end.divergences_resolved), "count");
}

void
reportMem(const EnginePss &pss, Report &report)
{
    report.metric("mem.coordinator_pss_mb", pss.coordinator, "MB");
    report.metric("mem.leader_pss_mb", pss.leader, "MB");
    report.metric("mem.followers_pss_mb", pss.followers, "MB");
}

void
reportPool(const varan::shmem::PoolStats &pool, Report &report)
{
    std::uint64_t live = pool.global.live_chunks;
    std::uint64_t carved = pool.global.bytes_carved;
    for (std::uint32_t i = 0; i < pool.num_shards; ++i) {
        live += pool.shard[i].live_chunks;
        carved += pool.shard[i].bytes_carved;
    }
    report.metric("shmem.spills", double(pool.spills), "count");
    report.metric("shmem.live_chunks_end", double(live), "count");
    report.metric("shmem.carved_mb", double(carved) / 1e6, "MB");
}

void
reportRing(const varan::core::StatusReport &end,
           const std::vector<double> &lag_samples, Report &report)
{
    using varan::bench::percentile;
    const double streamed = double(end.events_streamed);
    report.metric("ring.publish_batches", double(end.publish_batches),
                  "count");
    report.metric("ring.coalesced_share",
                  streamed > 0 ? double(end.events_coalesced) / streamed : 0,
                  "ratio");
    double full = 0;
    for (double lag : lag_samples)
        full += lag >= double(end.ring_capacity - 1) ? 1 : 0;
    report.metric("ring.lag_p50_events", percentile(lag_samples, 50),
                  "count");
    report.metric("ring.lag_max_events", percentile(lag_samples, 100),
                  "count");
    report.metric("ring.full_share",
                  lag_samples.empty() ? 0 : full / double(lag_samples.size()),
                  "ratio");
}

void
reportEngineTrace(double records, const varan::core::StatusReport &end,
                  Report &report)
{
    const auto &lag = end.trace.publish_lag;
    constexpr std::size_t n = varan::trace::kHistogramBuckets;
    report.metric("trace.publish_lag_p50_us",
                  log2HistogramPercentile(lag.buckets, n, 50) / 1e3, "us");
    report.metric("trace.publish_lag_p99_us",
                  log2HistogramPercentile(lag.buckets, n, 99) / 1e3, "us");
    report.metric("trace.records", records, "count");
}

void
reportTraceOverhead(double untraced_rate, double traced_rate, Report &report)
{
    report.metric("trace_overhead_pct",
                  untraced_rate > 0
                      ? (untraced_rate - traced_rate) / untraced_rate * 100
                      : 0,
                  "%");
}

void
reportSetup(const std::vector<double> &start_s,
            const std::vector<double> &first_op_s,
            const std::vector<double> &teardown_s, Report &report)
{
    using varan::bench::median;
    report.metric("setup.engine_start_ms", median(start_s) * 1e3, "ms");
    report.metric("setup.first_op_ms", median(first_op_s) * 1e3, "ms");
    report.metric("setup.teardown_ms", median(teardown_s) * 1e3, "ms");
}

} // namespace vb
