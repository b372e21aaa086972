/**
 * @file
 * wire_stream: a synthetic leader publishes into a tuple ring the way
 * the engine's leader does (claim, recycle the slot's old payload,
 * commit); a wire::Shipper ships the ring over a socketpair to a
 * wire::Receiver, which re-publishes into a remote layout; a drain
 * thread plays the remote follower and checks order, duplicates and
 * payload bytes. Both ends run their default start() pump threads.
 *
 * The native comparison drains the leader's ring directly on the same
 * node: the same events and the same checks, without the wire.
 */

#include <sys/socket.h>
#include <sys/syscall.h>
#include <thread>
#include <unistd.h>

#include "benchutil/stats.h"
#include "core/nvx.h"
#include "wire/receiver.h"
#include "wire/shipper.h"
#include "workloads.h"

namespace vb {
namespace {

using varan::core::EngineConfig;
using varan::core::EngineLayout;
using varan::core::StatusReport;
namespace ring = varan::ring;
namespace shmem = varan::shmem;
namespace wire = varan::wire;

constexpr std::uint32_t kMinPayload = 64;
constexpr std::uint32_t kMaxPayload = 4096;
constexpr std::uint64_t kSpanMask = 63; ///< spans: 1 event/batch in 64
constexpr double kLatencyRate = 200000; ///< latency-phase events per second

/** One node's shared region and engine layout, at default geometry. */
struct Node {
    shmem::Region region;
    EngineLayout layout;
    bool ok = false;

    explicit Node(std::uint32_t leader_id)
    {
        const EngineConfig defaults;
        auto r = shmem::Region::create(defaults.shm_bytes);
        if (!r.ok())
            return;
        region = std::move(r.value());
        layout = EngineLayout::create(&region, 1, leader_id,
                                      defaults.ring.capacity);
        ok = true;
    }

    ring::RingBuffer ringOf() const { return layout.tupleRing(&region, 0); }
    StatusReport status() const
    {
        return varan::core::collectStatus(&region, layout);
    }
};

/** The synthetic leader: seeded events, a quarter with payloads. */
class Publisher
{
  public:
    Publisher(Node &node, const std::string *values, std::uint64_t seed)
        : values_(values), rng_(seed), ring_(node.ringOf()),
          pool_(node.layout.pool(&node.region)),
          shadow_(node.layout.tupleShadow(&node.region, 0)),
          mask_(node.layout.controlBlock(&node.region)->ring_capacity - 1)
    {
    }

    /** Publish the next event stamped with @p stamp_ns (args[0]).
     *  @return false when the ring stayed full past the deadline. */
    bool
    publish(std::uint64_t stamp_ns)
    {
        const bool traced = SpanLog::enabled();
        const bool spanned = traced && (seq_ & kSpanMask) == 0;
        const std::uint64_t p0 = spanned ? nowNs() : 0;
        const std::uint64_t parent = spanned ? SpanLog::nextId() : 0;

        ring::Event ev = {};
        ev.type = ring::EventType::Syscall;
        ev.timestamp = seq_ + 1;
        ev.args[0] = stamp_ns;
        ev.args[1] = seq_;
        shmem::Offset payload = 0;
        if (rng_.below(4) == 0) {
            const std::uint32_t size =
                rng_.logUniform(kMinPayload, kMaxPayload);
            const std::uint64_t src = rng_.below(kMaxPayload);
            const std::uint64_t a = spanned ? nowNs() : 0;
            payload = pool_.allocate(0, size, 1);
            if (spanned)
                SpanLog::record(kSpanAllocate, kLaneGenerator, a, nowNs(),
                                SpanLog::nextId(), parent, seq_);
            if (payload == 0)
                return false;
            std::memcpy(pool_.pointer(payload, size), values_->data() + src,
                        size);
            ev.flags |= ring::kHasPayload;
            ev.payload = static_cast<std::uint32_t>(payload);
            ev.payload_size = size;
            ev.args[2] = src;
            ev.args[3] = size;
            ev.nr = SYS_read;
            ev.result = size;
        } else {
            ev.nr = SYS_getpid;
            ev.result = 4242;
        }

        ring::WaitSpec wait;
        wait.timeout_ns = 10000000000ULL;
        std::uint64_t seq = 0;
        const std::uint64_t c0 = traced ? nowNs() : 0;
        const bool claimed = ring_.claim(1, &seq, wait);
        const std::uint64_t c1 = traced ? nowNs() : 0;
        claim_ns_ += c1 - c0;
        if (spanned)
            SpanLog::record(kSpanClaim, kLaneGenerator, c0, c1,
                            SpanLog::nextId(), parent, seq_);
        if (!claimed) {
            if (payload != 0)
                pool_.release(payload);
            return false;
        }
        // The engine's slot-shadow rule: a slot's old payload is freed
        // only once the slot is claimed again, when every consumer has
        // provably moved past it.
        std::uint64_t &shadow = shadow_[seq & mask_];
        if (shadow != 0) {
            const std::uint64_t r0 = spanned ? nowNs() : 0;
            pool_.release(shadow);
            if (spanned)
                SpanLog::record(kSpanRelease, kLaneGenerator, r0, nowNs(),
                                SpanLog::nextId(), parent, seq_);
        }
        shadow = payload;
        const std::uint64_t m0 = spanned ? nowNs() : 0;
        ring_.commit({&ev, 1});
        if (spanned) {
            const std::uint64_t m1 = nowNs();
            SpanLog::record(kSpanCommit, kLaneGenerator, m0, m1,
                            SpanLog::nextId(), parent, seq_);
            SpanLog::record(kSpanRequest, kLaneGenerator, p0, m1, parent, 0,
                            seq_);
        }
        ++seq_;
        return true;
    }

    std::uint64_t published() const { return seq_; }
    /** Time spent in claim() while spans were on. */
    std::uint64_t claimNs() const { return claim_ns_; }

  private:
    const std::string *values_;
    Rng rng_;
    ring::RingBuffer ring_;
    shmem::ShardedPool pool_;
    std::uint64_t *shadow_;
    std::uint64_t mask_;
    std::uint64_t seq_ = 0;
    std::uint64_t claim_ns_ = 0;
};

/** The follower stand-in: drains one consumer slot and checks it. */
class Drain
{
  public:
    Drain(const Node &node, int slot, const std::string *values)
        : ring_(node.ringOf()), pool_(node.layout.pool(&node.region)),
          slot_(slot), values_(values)
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~Drain() { stop(); }
    Drain(const Drain &) = delete;
    Drain &operator=(const Drain &) = delete;

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /** Wait until @p count events were drained; false on timeout. */
    bool
    awaitDrained(std::uint64_t count, double timeout_s) const
    {
        const std::uint64_t deadline =
            nowNs() + std::uint64_t(timeout_s * 1e9);
        while (drained() < count) {
            if (nowNs() >= deadline)
                return false;
            ::usleep(200);
        }
        return true;
    }

    std::uint64_t drained() const { return drained_.load(); }
    /** Payload bytes verified so far. */
    std::uint64_t payloadBytes() const { return payload_bytes_.load(); }
    void recordLatency(bool on) { record_latency_.store(on); }
    /** Read after stop(). */
    const std::vector<double> &latencies() const { return lat_us_; }
    std::uint64_t orderErrors() const { return order_errors_; }
    std::uint64_t payloadErrors() const { return payload_errors_; }

  private:
    void
    loop()
    {
        ring::Event events[64];
        ring::WaitSpec wait;
        wait.timeout_ns = 20000000; // 20 ms: re-check stop_
        std::uint64_t batches = 0;
        while (!stop_.load()) {
            const bool spanned =
                (batches & kSpanMask) == 0 && SpanLog::enabled();
            const std::uint64_t t0 = spanned ? nowNs() : 0;
            const std::size_t n = ring_.peekBatch(slot_, events, 64, wait);
            if (n == 0)
                continue;
            const std::uint64_t t1 = nowNs();
            if (spanned)
                SpanLog::record(kSpanPeekBatch, kLaneDrain, t0, t1,
                                SpanLog::nextId(), 0, batches);
            const bool timed = record_latency_.load();
            for (std::size_t i = 0; i < n; ++i)
                check(events[i], timed ? t1 : 0);
            const std::uint64_t a0 = spanned ? nowNs() : 0;
            ring_.advanceBy(slot_, n);
            if (spanned)
                SpanLog::record(kSpanAdvanceBy, kLaneDrain, a0, nowNs(),
                                SpanLog::nextId(), 0, batches);
            drained_.fetch_add(n);
            ++batches;
        }
    }

    void
    check(const ring::Event &ev, std::uint64_t now)
    {
        const std::uint64_t seq = next_seq_++;
        if (ev.timestamp != seq + 1 || ev.args[1] != seq)
            ++order_errors_;
        const std::uint64_t size = ev.args[3];
        if (ev.hasPayload() != (size != 0) || ev.payload_size != size) {
            ++payload_errors_;
        } else if (size != 0 &&
                   std::memcmp(pool_.pointer(ev.payload, size),
                               values_->data() + ev.args[2], size) != 0) {
            ++payload_errors_;
        } else {
            payload_bytes_.fetch_add(size, std::memory_order_relaxed);
        }
        if (now != 0)
            lat_us_.push_back(double(now - ev.args[0]) / 1e3);
    }

    ring::RingBuffer ring_;
    shmem::ShardedPool pool_;
    int slot_;
    const std::string *values_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> record_latency_{false};
    std::atomic<std::uint64_t> drained_{0};
    std::atomic<std::uint64_t> payload_bytes_{0};
    std::uint64_t next_seq_ = 0;
    std::uint64_t order_errors_ = 0;
    std::uint64_t payload_errors_ = 0;
    std::vector<double> lat_us_;
    std::thread thread_;
};

/** Thread ids that appeared in this process since @p before. */
pid_t
newThread(const std::vector<pid_t> &before)
{
    for (pid_t tid : threadIds()) {
        if (std::find(before.begin(), before.end(), tid) == before.end())
            return tid;
    }
    return 0;
}

/**
 * Leader node -> Shipper -> socketpair -> Receiver -> remote node.
 *
 * Shipper::stats() and Receiver::stats() are read only after finish():
 * while their pump threads run, each re-takes its mutex right after
 * releasing it, and a stats() caller can wait on that mutex for as
 * long as the stream lasts. Window counters therefore come from a pipe
 * of their own per phase, and CPU from the threads' CPU clocks.
 */
class WirePipe
{
  public:
    WirePipe() : leader_(0), remote_(varan::core::kNoLeader)
    {
        if (!leader_.ok || !remote_.ok ||
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv_) != 0)
            return;
        shipper_ = std::make_unique<wire::Shipper>(&leader_.region,
                                                   &leader_.layout);
        receiver_ = std::make_unique<wire::Receiver>(&remote_.region,
                                                     &remote_.layout);
        if (!shipper_->attachTaps().isOk())
            return;
        bool adopted = false;
        std::thread adopting(
            [&] { adopted = receiver_->adopt(sv_[1]).isOk(); });
        const bool shaken = shipper_->addPeer(sv_[0]).isOk();
        adopting.join();
        if (!shaken || !adopted)
            return;
        const std::vector<pid_t> before = threadIds();
        receiver_->start();
        receiver_tid_ = newThread(before);
        up_ = true;
    }

    /** Start the shipper's pump thread. An event published before this
     *  is shipped on the pump's first pass, so a set-up measurement
     *  does not wait out an idle tick. */
    void
    startShipping()
    {
        const std::vector<pid_t> before = threadIds();
        shipper_->start();
        shipper_tid_ = newThread(before);
    }

    ~WirePipe() { finish(); }
    WirePipe(const WirePipe &) = delete;
    WirePipe &operator=(const WirePipe &) = delete;

    void
    finish()
    {
        if (shipper_) {
            shipper_->finish();
            ship_stats_ = shipper_->stats();
        }
        if (receiver_) {
            receiver_->finish();
            recv_stats_ = receiver_->stats();
        }
        shipper_.reset();
        receiver_.reset();
        for (int &fd : sv_) {
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
    }

    bool up() const { return up_; }
    Node &leader() { return leader_; }
    const Node &remote() const { return remote_; }
    /** Totals over the pipe's life; valid after finish(). */
    const wire::Shipper::Stats &shipStats() const { return ship_stats_; }
    const wire::Receiver::Stats &recvStats() const { return recv_stats_; }
    pid_t shipperTid() const { return shipper_tid_; }
    pid_t receiverTid() const { return receiver_tid_; }

  private:
    Node leader_;
    Node remote_;
    int sv_[2] = {-1, -1};
    std::unique_ptr<wire::Shipper> shipper_;
    std::unique_ptr<wire::Receiver> receiver_;
    wire::Shipper::Stats ship_stats_;
    wire::Receiver::Stats recv_stats_;
    pid_t shipper_tid_ = 0;
    pid_t receiver_tid_ = 0;
    bool up_ = false;
};

/** Leader-ring backlog: the largest lag over its attached consumers. */
double
ringBacklog(const ring::RingBuffer &r)
{
    std::uint64_t lag = 0;
    for (int id = 0; id < int(ring::kMaxConsumers); ++id) {
        if (r.consumerActive(id))
            lag = std::max(lag, r.lag(id));
    }
    return double(lag);
}

/** Flat-out throughput is booked per sub-window of this length; the
 *  run reports the median sub-window. */
constexpr double kSubWindowSec = 0.25;

/** What flat-out publishing measured, per sub-window, over rounds. */
struct FlatOut {
    bool ok = true;
    std::vector<double> rate[2];    ///< drained events/s [untraced, traced]
    std::vector<double> cpu_per_event; ///< whole process, us (untraced)
    std::uint64_t window_events = 0;
    double window_s = 0;
    double leader_cpu_s = 0;        ///< publishing thread, in windows
    double traced_s = 0;
    std::uint64_t claim_ns_traced = 0;
};

/**
 * Publish as fast as the pipeline takes events: kRoundWarmupSec
 * untimed, then @p measure_s in sub-windows, added to @p out. With
 * @p alternate_trace, every other sub-window records spans.
 */
void
publishFlatOut(Publisher &pub, const Drain &drain, double measure_s,
               bool alternate_trace, const std::function<void()> &on_start,
               const std::function<void()> &on_end, FlatOut &out)
{
    const std::uint64_t t0 = nowNs();
    const std::uint64_t window_start =
        t0 + std::uint64_t(kRoundWarmupSec * 1e9);
    const std::uint64_t window_end =
        window_start + std::uint64_t(measure_s * 1e9);
    const auto sub_ns = std::uint64_t(kSubWindowSec * 1e9);
    bool in_window = false;
    int traced = 0;
    std::uint64_t sub_t0 = 0, drained0 = 0, window_drained0 = 0, claim0 = 0;
    double cpu0 = 0, leader0 = 0;
    for (;;) {
        // Check the clock every 64 events: cheap next to a publish.
        for (int k = 0; k < 64; ++k) {
            if (!pub.publish(0)) {
                out.ok = false;
                SpanLog::enable(alternate_trace);
                return;
            }
        }
        const std::uint64_t now = nowNs();
        if (!in_window && now >= window_start) {
            in_window = true;
            if (on_start)
                on_start();
            sub_t0 = now;
            drained0 = window_drained0 = drain.drained();
            cpu0 = processCpuSec(::getpid());
            leader0 = selfThreadCpuSec();
            claim0 = pub.claimNs();
            SpanLog::enable(false);
        }
        if (!in_window || (now - sub_t0 < sub_ns && now < window_end))
            continue;
        const std::uint64_t drained = drain.drained();
        const double cpu = processCpuSec(::getpid());
        const double secs = double(now - sub_t0) / 1e9;
        out.rate[traced].push_back(double(drained - drained0) / secs);
        if (traced) {
            out.traced_s += secs;
            out.claim_ns_traced += pub.claimNs() - claim0;
        } else if (drained > drained0) {
            out.cpu_per_event.push_back((cpu - cpu0) * 1e6 /
                                        double(drained - drained0));
        }
        if (now >= window_end) {
            out.window_events += drained - window_drained0;
            out.window_s += double(now - window_start) / 1e9;
            out.leader_cpu_s += selfThreadCpuSec() - leader0;
            SpanLog::enable(alternate_trace);
            if (on_end)
                on_end();
            return;
        }
        traced = alternate_trace ? 1 - traced : 0;
        SpanLog::enable(traced == 1);
        sub_t0 = now;
        drained0 = drained;
        cpu0 = cpu;
        claim0 = pub.claimNs();
    }
}

/** Open loop: seeded Poisson arrivals, each published at its due time
 *  (busy-polling) and stamped with it. @return publish lateness (us). */
std::vector<double>
publishOpenLoop(Publisher &pub, double rate, double seconds, Rng &arrivals,
                bool *ok)
{
    std::vector<double> late;
    late.reserve(std::size_t(rate * seconds * 1.1));
    const std::uint64_t t0 = nowNs();
    const double end = double(t0) + seconds * 1e9;
    for (double due = double(t0); due < end; due += arrivals.gapNs(rate)) {
        std::uint64_t now = nowNs();
        while (double(now) < due)
            now = nowNs();
        if (!pub.publish(std::uint64_t(due))) {
            *ok = false;
            break;
        }
        late.push_back((double(now) - due) / 1e3);
    }
    return late;
}

/** Publish one event, start shipping, and wait for it to drain. */
bool
firstEvent(WirePipe &pipe, Publisher &pub, const Drain &drain)
{
    const bool published = pub.publish(0);
    pipe.startShipping();
    return published && drain.awaitDrained(1, 10.0);
}

/** Record one pipe's delivery checks and op counts. */
void
checkDelivery(const std::string &phase, bool ok, const Publisher &pub,
              const Drain &drain, const wire::Receiver::Stats &recv,
              Report &report)
{
    report.attempted(pub.published());
    report.failed(pub.published() - drain.drained());
    report.check(phase + "_in_order", drain.orderErrors() == 0,
                 std::to_string(drain.orderErrors()) + " out of order");
    report.check(phase + "_payloads_intact", drain.payloadErrors() == 0,
                 std::to_string(drain.payloadErrors()) + " wrong");
    report.check(phase + "_no_duplicates_or_corruption",
                 recv.duplicates_dropped == 0 && recv.corrupt_frames == 0);
    report.check(phase + "_all_delivered",
                 ok && drain.drained() == pub.published(),
                 std::to_string(drain.drained()) + "/" +
                     std::to_string(pub.published()));
}

} // namespace

void
runWireStream(const Params &params, Report &report)
{
    using varan::bench::median;
    using varan::bench::percentile;
    Rng master(params.seed);
    std::string values(2 * kMaxPayload, '\0');
    for (char &c : values)
        c = static_cast<char>(master.next());
    const std::uint64_t event_seed = master.next();
    const double native_s = params.seconds * 0.2;
    const double cap_s = params.seconds * 0.3;
    const double lat_s = params.seconds * 0.5;

    // --- set-up: construct both ends until the first event drains ------
    std::vector<double> setup, start, first_op, teardown;
    for (int i = 0; i < kSetupReps; ++i) {
        const std::uint64_t t0 = nowNs();
        auto pipe = std::make_unique<WirePipe>();
        const std::uint64_t started = nowNs();
        if (!pipe->up()) {
            report.check("wire_handshake", false);
            return;
        }
        bool ok = false;
        std::uint64_t first = 0;
        {
            Drain drain(pipe->remote(), 0, &values);
            Publisher pub(pipe->leader(), &values, event_seed);
            ok = firstEvent(*pipe, pub, drain);
            first = nowNs();
        }
        pipe.reset();
        teardown.push_back(double(nowNs() - first) / 1e9);
        if (!ok) {
            report.check("setup", false, "first event never drained");
            return;
        }
        setup.push_back(double(first - t0) / 1e9);
        start.push_back(double(started - t0) / 1e9);
        first_op.push_back(double(first - started) / 1e9);
    }

    // --- wire latency: seeded Poisson arrivals on a fresh pipe ---------
    std::vector<double> late, lat;
    double mem_mb = 0;
    {
        WirePipe pipe;
        Drain drain(pipe.remote(), 0, &values);
        Publisher pub(pipe.leader(), &values, event_seed ^ 0x9e3779b9ULL);
        bool ok = pipe.up();
        if (ok) {
            pipe.startShipping();
            Rng arrivals(event_seed ^ 0x5bd1e995ULL);
            publishOpenLoop(pub, kLatencyRate, kWarmupSec, arrivals, &ok);
            ok = drain.awaitDrained(pub.published(), kGraceSec) && ok;
            drain.recordLatency(true);
            late = publishOpenLoop(pub, kLatencyRate, lat_s, arrivals, &ok);
            ok = drain.awaitDrained(pub.published(), kGraceSec) && ok;
            // Memory at a fixed offered load, before any capacity phase:
            // flat out, the shipper's outbox grows by a different amount
            // every run (see README, follow-ups) and the heap keeps it.
            mem_mb = pssMb(::getpid());
        }
        drain.stop();
        pipe.finish();
        lat = drain.latencies();
        checkDelivery("latency", ok, pub, drain, pipe.recvStats(), report);
    }
    if (!report.allChecksOk())
        return;

    // --- capacity: rounds of native, then wire, each on fresh nodes ----
    // Native drains the leader's ring on its own node; the wire pipe
    // counts only its own totals, so a round's counters are the phase's.
    FlatOut native, cap;
    StatusReport s1 = {};
    double ship_cpu = 0, recv_cpu = 0, cap_pss = 0;
    double trace_records = 0;
    std::vector<double> lags;
    wire::Shipper::Stats ship;
    wire::Receiver::Stats recv;
    std::uint64_t window_payload = 0;
    for (int round = 0; round < kRounds && report.allChecksOk(); ++round) {
        const std::uint64_t seed = event_seed + std::uint64_t(round);
        {
            Node node(0);
            const int slot = node.ok ? node.ringOf().attachConsumer() : -1;
            if (slot < 0) {
                report.check("native_attach", false);
                return;
            }
            Drain drain(node, slot, &values);
            Publisher pub(node, &values, seed);
            publishFlatOut(pub, drain, native_s / kRounds, false, {}, {},
                           native);
            const bool complete =
                drain.awaitDrained(pub.published(), kGraceSec);
            drain.stop();
            report.attempted(pub.published());
            report.failed(pub.published() - drain.drained());
            report.check("native_delivery",
                         native.ok && complete && drain.orderErrors() == 0 &&
                             drain.payloadErrors() == 0);
        }
        if (!report.allChecksOk())
            return;

        const std::uint64_t t0 = nowNs();
        WirePipe pipe;
        const std::uint64_t started = nowNs();
        Drain drain(pipe.remote(), 0, &values);
        Publisher pub(pipe.leader(), &values, seed);
        bool ok = pipe.up() && firstEvent(pipe, pub, drain);
        if (ok) {
            const std::uint64_t first = nowNs();
            setup.push_back(double(first - t0) / 1e9);
            start.push_back(double(started - t0) / 1e9);
            first_op.push_back(double(first - started) / 1e9);
        }
        std::unique_ptr<PeriodicSampler> sampler;
        StatusReport s0 = {};
        std::uint64_t payload0 = 0;
        auto on_start = [&] {
            if (params.traced) {
                const ring::RingBuffer r = pipe.leader().ringOf();
                sampler = std::make_unique<PeriodicSampler>(
                    [r] { return ringBacklog(r); });
            }
            s0 = pipe.leader().status();
            ship_cpu -= threadCpuSec(pipe.shipperTid());
            recv_cpu -= threadCpuSec(pipe.receiverTid());
            payload0 = drain.payloadBytes();
        };
        auto on_end = [&] {
            s1 = pipe.leader().status();
            ship_cpu += threadCpuSec(pipe.shipperTid());
            recv_cpu += threadCpuSec(pipe.receiverTid());
            window_payload += drain.payloadBytes() - payload0;
            trace_records +=
                double(s1.trace.trace_records - s0.trace.trace_records);
            if (sampler)
                sampler->stop();
            cap_pss = pssMb(::getpid());
        };
        if (ok) {
            publishFlatOut(pub, drain, cap_s / kRounds, params.traced,
                           on_start, on_end, cap);
            ok = cap.ok && drain.awaitDrained(pub.published(), kGraceSec);
        }
        SpanLog::enable(params.traced);
        drain.stop();
        pipe.finish();
        if (sampler) {
            sampler->stop();
            lags.insert(lags.end(), sampler->samples().begin(),
                        sampler->samples().end());
        }
        ship.frames += pipe.shipStats().frames;
        ship.events += pipe.shipStats().events;
        ship.bytes += pipe.shipStats().bytes;
        ship.drain_passes += pipe.shipStats().drain_passes;
        ship.credit_stalls += pipe.shipStats().credit_stalls;
        ship.retransmitted_frames += pipe.shipStats().retransmitted_frames;
        recv.duplicates_dropped += pipe.recvStats().duplicates_dropped;
        recv.corrupt_frames += pipe.recvStats().corrupt_frames;
        checkDelivery("capacity", ok, pub, drain, pipe.recvStats(), report);
    }
    if (!report.allChecksOk())
        return;
    const double native_rate = median(native.rate[0]);

    const double events = double(cap.window_events);
    const double rate = median(cap.rate[0]);
    if (!params.traced) {
        report.metric("setup_s", median(setup), "s");
        report.metric("ops_per_s", rate, "ops/s");
        report.metric("overhead_x", native_rate / rate, "x");
        report.metric("lat_p50_us", percentile(lat, 50), "us");
        report.metric("lat_p90_us", percentile(lat, 90), "us");
        report.metric("cpu_us_per_op", median(cap.cpu_per_event), "us");
        report.metric("mem_mb", mem_mb, "MB");
        return;
    }

    // --- per-layer (traced run) ---------------------------------------
    report.metric("client.attempted", double(cap.window_events), "count");
    report.metric("client.failed", 0, "count");
    report.metric("client.late_p99_us", percentile(late, 99), "us");
    report.metric("client.lat_p99_us", percentile(lat, 99), "us");
    report.metric("client.busy_share", cap.leader_cpu_s / cap.window_s,
                  "ratio");
    reportRing(s1, lags, report);
    reportEngineTrace(trace_records, s1, report);
    reportPool(s1.pool, report);
    reportSetup(start, first_op, teardown, report);
    reportMem({cap_pss, 0, 0}, report);

    // Shipper and receiver counters cover the capacity pipe's life
    // (warm-up included); CPU and payload bytes cover the window.
    const double shipped = double(ship.events);
    const double passes = double(ship.drain_passes);
    report.metric("wire.events_per_frame",
                  ship.frames > 0 ? shipped / double(ship.frames) : 0,
                  "count");
    report.metric("wire.bytes_per_event",
                  shipped > 0 ? double(ship.bytes) / shipped : 0, "B");
    report.metric("wire.payload_mb_per_s",
                  double(window_payload) / 1e6 / cap.window_s, "MB/s");
    report.metric("wire.drain_passes", passes, "count");
    report.metric("wire.events_per_pass", passes > 0 ? shipped / passes : 0,
                  "count");
    report.metric("wire.credit_stalls", double(ship.credit_stalls), "count");
    report.metric("wire.duplicates", double(recv.duplicates_dropped),
                  "count");
    report.metric("wire.corrupt", double(recv.corrupt_frames), "count");
    report.metric("wire.retransmits", double(ship.retransmitted_frames),
                  "count");
    report.metric("wire.shipper_cpu_us_per_event", ship_cpu * 1e6 / events,
                  "us");
    report.metric("wire.receiver_cpu_us_per_event", recv_cpu * 1e6 / events,
                  "us");
    report.metric("wire.leader_blocked_share",
                  cap.traced_s > 0
                      ? double(cap.claim_ns_traced) / 1e9 / cap.traced_s
                      : 0,
                  "ratio");
    report.metric("wire.deliver_p99_us", percentile(lat, 99), "us");
    reportTraceOverhead(rate, median(cap.rate[1]), report);
}

} // namespace vb
