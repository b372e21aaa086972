/**
 * @file
 * Shared pieces of the varanbench driver: the seeded generator, the
 * metric sink, the span log behind the traced run, phase deadlines and
 * the /proc readers that measure the engine from outside.
 *
 * Every workload reports through Report: end-to-end metrics in an
 * untraced run, per-layer metrics in a traced run, plus the op counts
 * and named correctness checks that benchmark/run.py turns into the
 * result line.
 */

#ifndef VARANBENCH_BENCH_H
#define VARANBENCH_BENCH_H

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "core/nvx.h"
#include "core/status.h"

namespace vb {

/** CLOCK_MONOTONIC in ns through the vDSO: never a system call, so it
 *  is safe inside engine variants (it creates no event). */
std::uint64_t nowNs();

/** Seeded generator (splitmix64); the only source of workload inputs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

    /** Log-uniform integer in [lo, hi]. */
    std::uint32_t
    logUniform(std::uint32_t lo, std::uint32_t hi)
    {
        double v = std::exp(std::log(double(lo)) +
                            unit() * (std::log(double(hi) + 1) -
                                      std::log(double(lo))));
        auto n = static_cast<std::uint32_t>(v);
        return n < lo ? lo : (n > hi ? hi : n);
    }

    /** Exponential inter-arrival gap in ns for @p rate events/s. */
    double
    gapNs(double rate)
    {
        return -std::log(1.0 - unit()) * 1e9 / rate;
    }

  private:
    std::uint64_t state_;
};

/** Run parameters shared by every workload. */
struct Params {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;   ///< measured time of one run, split over phases
    bool traced = false;   ///< per-layer run: spans + layer counters
    std::string trace_path; ///< Chrome trace output (traced runs)
    /** Self-test faults: "stop-leader" SIGSTOPs the leader in the
     *  engine capacity phase; "bad-model" corrupts the reply model. */
    std::string fault;
};

/** Metric sink and correctness ledger of one run. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a named check; a failed check makes the run incorrect. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
    void attempted(std::uint64_t n) { attempted_ += n; }
    void failed(std::uint64_t n) { failed_ += n; }
    std::uint64_t failedSoFar() const { return failed_; }
    bool allChecksOk() const { return checks_ok_; }

    /** Print the record: one `metric`/`check` line each, then totals. */
    void print() const;

  private:
    struct Line {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Line> metrics_;
    std::vector<std::string> checks_;
    bool checks_ok_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- spans -----------------------------------------------------------

/** Span names, one per layer boundary the benchmark calls across. */
enum SpanName : std::uint32_t {
    kSpanRequest,       ///< one request: due -> reply, or one publish
    kSpanNvxStart,      ///< Nvx construct + start()
    kSpanNvxStatus,     ///< Nvx::status()
    kSpanNvxWaitFor,    ///< Nvx::waitFor()
    kSpanInvokePlain,   ///< sys::invoke: getpid / close(-1)
    kSpanInvokeRead,    ///< sys::invoke: read(/dev/zero)
    kSpanInvokeWrite,   ///< sys::invoke: write(/dev/null)
    kSpanInvokeFd,      ///< sys::invoke: open + close
    kSpanClaim,         ///< RingBuffer::claim (synthetic leader)
    kSpanCommit,        ///< RingBuffer::commit
    kSpanAllocate,      ///< ShardedPool::allocate
    kSpanRelease,       ///< ShardedPool::release (slot shadow)
    kSpanPeekBatch,     ///< RingBuffer::peekBatch (drain)
    kSpanAdvanceBy,     ///< RingBuffer::advanceBy (drain)
    kSpanCount,
};

const char *spanName(std::uint32_t name);

struct Span {
    std::uint32_t name;
    std::uint32_t lane;   ///< process/thread lane in the timeline
    std::uint64_t start;  ///< nowNs()
    std::uint64_t end;
    std::uint64_t id;
    std::uint64_t parent; ///< 0 = root
    std::uint64_t req;    ///< request id shared by one request's spans
};

/**
 * Fixed-capacity span buffer in MAP_SHARED memory, so engine variants
 * forked after it was mapped append into the same log. Recording is
 * off until enable(); spans past the capacity are counted and dropped.
 * Written out as Chrome trace-event JSON when the run ends.
 */
class SpanLog
{
  public:
    /** Map the buffer (before any fork that should share it). */
    static void init(std::size_t capacity);
    static void enable(bool on);
    static bool enabled();
    /** A fresh span id (unique across processes). */
    static std::uint64_t nextId();
    static void record(std::uint32_t name, std::uint32_t lane,
                       std::uint64_t start, std::uint64_t end,
                       std::uint64_t id, std::uint64_t parent,
                       std::uint64_t req);
    static std::uint64_t dropped();
    /** Write every recorded span as Chrome trace-event JSON. */
    static bool writeChrome(const std::string &path,
                            const std::vector<std::string> &lane_names);
};

/** Span lanes: the timeline rows of the Chrome trace. */
enum Lane : std::uint32_t {
    kLaneDriver = 0,    ///< benchmark main thread (engine lifecycle)
    kLaneGenerator = 1, ///< load generator / synthetic leader
    kLaneDrain = 2,     ///< remote drain thread (wire)
    kLaneNative = 3,    ///< native storm process
    kLaneVariant0 = 4,  ///< engine variant v at kLaneVariant0 + v
};

// --- measurement -----------------------------------------------------

/** CPU time of a whole process (all its threads), in seconds. */
double processCpuSec(pid_t pid);
/** CPU time of one thread of this process, in seconds. */
double threadCpuSec(pid_t tid);
/** CPU time of the calling thread, in seconds. */
double selfThreadCpuSec();
/** Thread ids of this process. */
std::vector<pid_t> threadIds();
/** Proportional set size from /proc/<pid>/smaps_rollup, in MB. */
double pssMb(pid_t pid);
/** Parent pid from /proc/<pid>/stat (0 when unreadable). */
pid_t parentPid(pid_t pid);

/** Percentile of a log2-bucket histogram (trace::Histogram layout),
 *  interpolated inside the bucket; 0 when empty. */
double log2HistogramPercentile(const std::uint64_t *buckets,
                               std::size_t n, double p);

/**
 * Fine-grained latency histogram: 4 ns buckets up to 64 us. Lives in
 * plain or shared memory (trivially copyable, zero-initialised), so
 * engine variants can fill one each.
 */
struct NsHistogram {
    static constexpr std::size_t kBuckets = 16384;
    static constexpr std::uint64_t kWidthNs = 4;
    std::uint64_t counts[kBuckets];
    std::uint64_t total;

    void
    add(std::uint64_t ns)
    {
        std::uint64_t b = ns / kWidthNs;
        counts[b < kBuckets ? b : kBuckets - 1] += 1;
        total += 1;
    }

    /** Interpolated percentile in ns (0 when empty). */
    double percentile(double p) const;
    void merge(const NsHistogram &other);
};

/** A unique abstract-socket name for one server instance. */
std::string endpointName(const char *tag);

/** Calls a probe every 10 ms on its own thread until stop(); a
 *  negative reading is skipped (the probe is off duty). */
class PeriodicSampler
{
  public:
    explicit PeriodicSampler(std::function<double()> probe);
    ~PeriodicSampler();
    PeriodicSampler(const PeriodicSampler &) = delete;
    PeriodicSampler &operator=(const PeriodicSampler &) = delete;

    void stop();
    /** The sampling thread's id (to leave its CPU out of a total). */
    pid_t tid() const { return tid_.load(); }
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::function<double()> probe_;
    std::atomic<bool> stop_{false};
    std::atomic<pid_t> tid_{0};
    std::vector<double> samples_;
    std::thread thread_;
};

// --- per-layer reporting shared by the workloads ----------------------

/** CPU seconds of an engine's parts (totals, or a window's delta). */
struct EngineCpu {
    double leader = 0;
    double followers = 0;   ///< summed over followers
    double coordinator = 0; ///< coordinator threads + zygote

    double total() const { return leader + followers + coordinator; }

    EngineCpu
    operator-(const EngineCpu &o) const
    {
        return {leader - o.leader, followers - o.followers,
                coordinator - o.coordinator};
    }
};

/** PSS of an engine's processes, in MB. */
struct EnginePss {
    double coordinator = 0; ///< this process + the zygote
    double leader = 0;
    double followers = 0;

    double total() const { return coordinator + leader + followers; }
};

/** The processes of a running engine, read from outside. */
struct EngineProcs {
    pid_t leader = 0;
    std::vector<pid_t> followers;
    pid_t zygote = 0;

    static EngineProcs of(const varan::core::StatusReport &status);

    /** CPU by role; the coordinator share is this process without the
     *  threads in @p exclude (the load generator, samplers), plus the
     *  zygote. */
    EngineCpu cpu(const std::vector<pid_t> &exclude) const;
    /** PSS of this process, the zygote and every variant. */
    EnginePss pss() const;
};

/** Checks on how an engine ended: every variant exited 0, no fatal
 *  divergence, and every variant dispatched the same number of calls. */
void checkEngineEnd(const std::vector<varan::core::VariantResult> &results,
                    const varan::core::StatusReport &end, Report &report);

/** core.*: @p events streamed and @p cpu spent over @p ops, plus the
 *  fd transfers and divergences in @p end. */
void reportCore(double events, const varan::core::StatusReport &end,
                double ops, const EngineCpu &cpu, Report &report);

/** mem.*: PSS by role. */
void reportMem(const EnginePss &pss, Report &report);

/** shmem.*: spills, live chunks and carved bytes over every arena. */
void reportPool(const varan::shmem::PoolStats &pool, Report &report);

/** ring.*: batching counters plus the sampled lag distribution. */
void reportRing(const varan::core::StatusReport &end,
                const std::vector<double> &lag_samples, Report &report);

/** trace.*: the publish->dispatch lag histogram in @p end and the
 *  flight-recorder @p records written while measuring. */
void reportEngineTrace(double records, const varan::core::StatusReport &end,
                       Report &report);

/** trace_overhead_pct: how much slower the traced slices ran. */
void reportTraceOverhead(double untraced_rate, double traced_rate,
                         Report &report);

/** setup.*: medians of the set-up repetitions. */
void reportSetup(const std::vector<double> &start_s,
                 const std::vector<double> &first_op_s,
                 const std::vector<double> &teardown_s, Report &report);

} // namespace vb

#endif // VARANBENCH_BENCH_H
