/**
 * @file
 * kv_mixed and cache_mt: an in-tree server under the engine, driven by
 * one generator thread over a few connections.
 *
 * Each connection owns a disjoint key range and a reply model, so the
 * exact bytes of every reply are known when its request is sent, with
 * or without pipelining. Disjoint keys also keep multi-threaded vcache
 * deterministic across variants: replies depend only on the
 * connection's own history, never on how worker threads interleave.
 */

#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/vcache.h"
#include "apps/vstore.h"
#include "benchutil/stats.h"
#include "core/nvx.h"
#include "workloads.h"

namespace vb {
namespace {

using varan::core::Nvx;
using varan::core::StatusReport;

enum class App { Kv, Cache };

/** One server workload's shape. */
struct ServerShape {
    App app;
    const char *tag;
    int connections;
    int followers;
    double rate; ///< latency-phase arrivals per second
    int workers; ///< vcache worker threads
};

constexpr std::uint64_t kKeys = 1024;     ///< keys per connection
constexpr std::uint64_t kCounters = 64;   ///< INCR keys per connection
constexpr std::uint32_t kMinValue = 16;
constexpr std::uint32_t kMaxValue = 4096;
constexpr std::uint64_t kSpanEvery = 64;  ///< request spans: 1 in 64

std::string
makeValueBytes(Rng &rng)
{
    static const char kAlnum[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string bytes(2 * kMaxValue, 'x');
    for (char &c : bytes)
        c = kAlnum[rng.below(62)];
    return bytes;
}

/**
 * One connection's seeded request stream and the model that predicts
 * each reply. The model advances when a request is generated, which is
 * exact because a connection's requests are served in order.
 */
class Stream
{
  public:
    Stream(App app, int conn, std::uint64_t seed, const std::string *values,
           bool bad_model)
        : app_(app), conn_(conn), rng_(seed), values_(values),
          bad_model_(bad_model), slots_(kKeys), counters_(kCounters, 0)
    {
    }

    void
    next(std::string &req, std::string &expect)
    {
        if (app_ == App::Kv)
            nextKv(req, expect);
        else
            nextCache(req, expect);
    }

  private:
    struct Slot {
        std::uint32_t off = 0;
        std::uint32_t len = 0;
        bool present = false;
    };

    std::string
    key(char space, std::uint64_t k) const
    {
        return std::string(1, space) + std::to_string(conn_) + ":" +
               std::to_string(k);
    }

    void
    appendValue(std::string &out, const Slot &slot) const
    {
        out.append(*values_, slot.off, slot.len);
        if (bad_model_)
            out.back() = out.back() == 'a' ? 'b' : 'a';
    }

    Slot
    freshValue()
    {
        Slot slot;
        slot.len = rng_.logUniform(kMinValue, kMaxValue);
        slot.off = static_cast<std::uint32_t>(rng_.below(kMaxValue));
        slot.present = true;
        return slot;
    }

    // SET 30 / GET 50 / INCR 10 / DEL 5 / PING 5.
    void
    nextKv(std::string &req, std::string &expect)
    {
        const std::uint64_t r = rng_.below(100);
        if (r >= 95) {
            req = "PING\r\n";
            expect = "+PONG\r\n";
            return;
        }
        if (r >= 80 && r < 90) {
            const std::uint64_t c = rng_.below(kCounters);
            req = "INCR " + key('c', c) + "\r\n";
            expect = ":" + std::to_string(++counters_[c]) + "\r\n";
            return;
        }
        const std::uint64_t k = rng_.below(kKeys);
        Slot &slot = slots_[k];
        if (r < 30) {
            slot = freshValue();
            req = "SET " + key('k', k) + " ";
            req.append(*values_, slot.off, slot.len);
            req += "\r\n";
            expect = "+OK\r\n";
        } else if (r < 80) {
            req = "GET " + key('k', k) + "\r\n";
            if (!slot.present) {
                expect = "$-1\r\n";
                return;
            }
            expect = "$" + std::to_string(slot.len) + "\r\n";
            appendValue(expect, slot);
            expect += "\r\n";
        } else {
            req = "DEL " + key('k', k) + "\r\n";
            expect = slot.present ? ":1\r\n" : ":0\r\n";
            slot.present = false;
        }
    }

    // get 90 / set 10.
    void
    nextCache(std::string &req, std::string &expect)
    {
        const std::uint64_t k = rng_.below(kKeys);
        const std::string name = key('k', k);
        Slot &slot = slots_[k];
        if (rng_.below(100) < 10) {
            slot = freshValue();
            req = "set " + name + " 0 0 " + std::to_string(slot.len) + "\r\n";
            req.append(*values_, slot.off, slot.len);
            req += "\r\n";
            expect = "STORED\r\n";
            return;
        }
        req = "get " + name + "\r\n";
        if (!slot.present) {
            expect = "END\r\n";
            return;
        }
        expect = "VALUE " + name + " 0 " + std::to_string(slot.len) + "\r\n";
        appendValue(expect, slot);
        expect += "\r\nEND\r\n";
    }

    App app_;
    int conn_;
    Rng rng_;
    const std::string *values_;
    bool bad_model_;
    std::vector<Slot> slots_;
    std::vector<std::int64_t> counters_;
};

/** Connect with a short retry while the server is still binding. */
int
connectTo(const std::string &endpoint, double timeout_s)
{
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path + 1, endpoint.data(),
                std::min(endpoint.size(), sizeof(addr.sun_path) - 2));
    const auto len = static_cast<socklen_t>(
        offsetof(struct sockaddr_un, sun_path) + 1 + endpoint.size());
    const std::uint64_t deadline = nowNs() + std::uint64_t(timeout_s * 1e9);
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr), len) ==
            0)
            return fd;
        const int err = errno;
        ::close(fd);
        if (err != ECONNREFUSED || nowNs() >= deadline)
            return -1;
        ::usleep(100);
    }
}

/** Send @p request and read until the exact @p expect arrives. */
bool
exchangeOnce(int fd, const std::string &request, const std::string &expect,
             double timeout_s)
{
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size()))
        return false;
    std::string got;
    const std::uint64_t deadline = nowNs() + std::uint64_t(timeout_s * 1e9);
    while (got.size() < expect.size()) {
        const std::uint64_t now = nowNs();
        if (now >= deadline)
            return false;
        struct pollfd pfd = {fd, POLLIN, 0};
        if (::poll(&pfd, 1, int((deadline - now) / 1000000) + 1) <= 0)
            continue;
        char buf[256];
        ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n <= 0)
            return false;
        got.append(buf, static_cast<std::size_t>(n));
    }
    return got == expect;
}

struct Pending {
    std::string expect;
    std::uint64_t due = 0;
    std::uint64_t req = 0;
    std::size_t matched = 0;
};

struct Conn {
    int fd = -1;
    std::unique_ptr<Stream> stream;
    std::deque<Pending> inflight;
    std::string out;
    std::size_t out_off = 0;
    bool broken = false;
};

/** One closed-loop slice: completions over its length. */
struct Slice {
    std::uint64_t ops = 0;
    double seconds = 0;
    double busy_share = 0; ///< time spent handling replies, not polling
};

/** What the open-loop phase measured. */
struct OpenLoop {
    std::uint64_t sent = 0;
    std::vector<double> lat_us;  ///< due -> reply complete
    std::vector<double> late_us; ///< due -> handed to send()
    std::vector<double> p50_us;  ///< per sub-window
    std::vector<double> p90_us;
};

/** Open-loop latency percentiles are taken per sub-window of this
 *  length, and the run reports their median. */
constexpr double kSubWindowSec = 0.5;

/**
 * The load generator: one thread, several connections, always
 * busy-polling (a generator that sleeps in poll() between replies
 * bounds the closed loop by its own wake-ups and hides the engine's
 * cost). The closed loop keeps one request outstanding per connection;
 * the open loop sends each request at its seeded Poisson due time and
 * pipelines freely. A wrong or missing reply counts as failed.
 */
class Client
{
  public:
    Client(const ServerShape &shape, const std::string &endpoint,
           std::uint64_t seed, const std::string *values, bool bad_model)
    {
        for (int c = 0; c < shape.connections; ++c) {
            auto conn = std::make_unique<Conn>();
            conn->fd = connectTo(endpoint, 10.0);
            conn->broken = conn->fd < 0;
            conn->stream = std::make_unique<Stream>(
                shape.app, c, seed * 1000003ULL + std::uint64_t(c), values,
                bad_model);
            conns_.push_back(std::move(conn));
        }
    }

    ~Client() { closeAll(); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool
    connected() const
    {
        for (const auto &c : conns_) {
            if (c->broken)
                return false;
        }
        return true;
    }

    void
    closeAll()
    {
        for (auto &c : conns_) {
            if (c->fd >= 0)
                ::close(c->fd);
            c->fd = -1;
        }
    }

    std::uint64_t sent() const { return sent_; }
    std::uint64_t failed() const { return failed_; }

    /**
     * Run the closed loop for @p seconds, then let the outstanding
     * requests finish (bounded by kGraceSec), so every slice starts and
     * ends with an idle server. @p tick runs between polls with the
     * elapsed slice time.
     */
    Slice
    closedSlice(double seconds, const std::function<void(double)> &tick)
    {
        Slice slice;
        const std::uint64_t t0 = nowNs();
        const std::uint64_t end = t0 + std::uint64_t(seconds * 1e9);
        const std::uint64_t deadline = end + std::uint64_t(kGraceSec * 1e9);
        std::uint64_t busy_ns = 0;
        for (auto &c : conns_) {
            if (!c->broken)
                issue(*c, t0);
        }
        std::uint64_t now = t0;
        while (now < deadline && !idle()) {
            if (tick)
                tick(double(now - t0) / 1e9);
            for (auto &conn : conns_) {
                Conn &c = *conn;
                const std::size_t before = c.inflight.size();
                receive(c, now, nullptr);
                const std::size_t done = before - c.inflight.size();
                if (c.broken || done == 0)
                    continue;
                slice.ops += done;
                if (now < end)
                    issue(c, now);
                busy_ns += nowNs() - now;
            }
            now = nowNs();
        }
        slice.seconds = double(now - t0) / 1e9;
        slice.busy_share = double(busy_ns) / 1e9 / slice.seconds;
        failOutstanding();
        return slice;
    }

    /** Seeded Poisson arrivals at @p rate: kWarmupSec untimed, then
     *  @p seconds measured. */
    OpenLoop
    openLoop(double rate, double seconds, Rng &arrivals)
    {
        openLoopPhase(rate, kWarmupSec, arrivals);
        return openLoopPhase(rate, seconds, arrivals);
    }

  private:
    OpenLoop
    openLoopPhase(double rate, double seconds, Rng &arrivals)
    {
        OpenLoop st;
        const std::size_t expected = std::size_t(rate * seconds * 1.1);
        st.lat_us.reserve(expected);
        st.late_us.reserve(expected);
        std::vector<std::vector<double>> windows(
            std::size_t(seconds / kSubWindowSec) + 1);
        const std::uint64_t sent0 = sent_;
        const std::uint64_t t0 = nowNs();
        const std::uint64_t end = t0 + std::uint64_t(seconds * 1e9);
        const std::uint64_t deadline = end + std::uint64_t(kGraceSec * 1e9);
        double due = double(t0);
        std::uint64_t now = t0;
        while (now < deadline) {
            while (due <= double(now) && due < double(end)) {
                Conn &c = *conns_[arrivals.below(conns_.size())];
                if (!c.broken) {
                    issue(c, std::uint64_t(due));
                    st.late_us.push_back((double(nowNs()) - due) / 1e3);
                }
                due += arrivals.gapNs(rate);
            }
            now = nowNs();
            for (auto &c : conns_) {
                const std::size_t before = st.lat_us.size();
                receive(*c, now, &st.lat_us);
                for (std::size_t i = before; i < st.lat_us.size(); ++i) {
                    const double due_s =
                        double(now - t0) / 1e9 - st.lat_us[i] / 1e6;
                    const auto w = std::min(std::size_t(due_s / kSubWindowSec),
                                            windows.size() - 1);
                    windows[w].push_back(st.lat_us[i]);
                }
            }
            if (now >= end && idle())
                break;
        }
        failOutstanding();
        st.sent = sent_ - sent0;
        for (const auto &w : windows) {
            // A trailing partial window with few samples would add noise.
            if (w.size() < std::size_t(rate * kSubWindowSec / 2))
                continue;
            st.p50_us.push_back(varan::bench::percentile(w, 50));
            st.p90_us.push_back(varan::bench::percentile(w, 90));
        }
        return st;
    }

    bool
    idle() const
    {
        for (const auto &c : conns_) {
            if (!c->broken && !c->inflight.empty())
                return false;
        }
        return true;
    }

    void
    issue(Conn &c, std::uint64_t due)
    {
        Pending p;
        std::string req;
        c.stream->next(req, p.expect);
        p.due = due;
        p.req = ++sent_;
        c.inflight.push_back(std::move(p));
        c.out += req;
        flush(c);
    }

    void
    flush(Conn &c)
    {
        while (!c.broken && c.out_off < c.out.size()) {
            ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n > 0) {
                c.out_off += static_cast<std::size_t>(n);
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else {
                breakConn(c);
            }
        }
        if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
        }
    }

    /** A connection whose stream can no longer be trusted: everything
     *  outstanding on it fails. */
    void
    breakConn(Conn &c)
    {
        c.broken = true;
        failed_ += c.inflight.size();
        c.inflight.clear();
    }

    /** Read what is available and match it against the expected
     *  replies, in order; a byte that differs breaks the connection. */
    void
    receive(Conn &c, std::uint64_t now, std::vector<double> *latencies)
    {
        if (c.broken)
            return;
        flush(c);
        char buf[65536];
        for (;;) {
            ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            if (n <= 0 || c.inflight.empty()) {
                breakConn(c);
                return;
            }
            const char *p = buf;
            std::size_t left = static_cast<std::size_t>(n);
            while (left > 0) {
                if (c.inflight.empty()) {
                    breakConn(c);
                    return;
                }
                Pending &f = c.inflight.front();
                const std::size_t k =
                    std::min(left, f.expect.size() - f.matched);
                if (std::memcmp(p, f.expect.data() + f.matched, k) != 0) {
                    breakConn(c);
                    return;
                }
                f.matched += k;
                p += k;
                left -= k;
                if (f.matched == f.expect.size()) {
                    if (latencies != nullptr)
                        latencies->push_back(double(now - f.due) / 1e3);
                    if (f.req % kSpanEvery == 0 && SpanLog::enabled()) {
                        SpanLog::record(kSpanRequest, kLaneGenerator, f.due,
                                        now, SpanLog::nextId(), 0, f.req);
                    }
                    c.inflight.pop_front();
                }
            }
        }
    }

    /** What is still unanswered at a deadline fails. */
    void
    failOutstanding()
    {
        for (auto &c : conns_) {
            failed_ += c->inflight.size();
            c->inflight.clear();
        }
    }

    std::vector<std::unique_ptr<Conn>> conns_;
    std::uint64_t sent_ = 0;
    std::uint64_t failed_ = 0;
};

/** The server's entry point, as a variant or a native process. */
std::function<int()>
serverEntry(const ServerShape &shape, const std::string &endpoint)
{
    if (shape.app == App::Kv) {
        return [endpoint] {
            varan::apps::vstore::Options o;
            o.endpoint = endpoint;
            return varan::apps::vstore::serve(o);
        };
    }
    const int workers = shape.workers;
    return [endpoint, workers] {
        varan::apps::vcache::Options o;
        o.endpoint = endpoint;
        o.workers = workers;
        return varan::apps::vcache::serve(o);
    };
}

/** A request with a fixed reply, for the set-up probe. */
void
probeRequest(App app, std::string &req, std::string &expect)
{
    if (app == App::Kv) {
        req = "PING\r\n";
        expect = "+PONG\r\n";
    } else {
        req = "version\r\n";
        expect = "VERSION 1.4.17\r\n";
    }
}

/** Ask the server to exit; bounded so a wedged server cannot hang us. */
void
knockShutdown(App app, const std::string &endpoint)
{
    int fd = connectTo(endpoint, 2.0);
    if (fd < 0)
        return;
    const std::string req = app == App::Kv ? "SHUTDOWN\r\n" : "shutdown\r\n";
    const std::string expect = app == App::Kv ? "+OK\r\n" : "BYE\r\n";
    exchangeOnce(fd, req, expect, 2.0);
    ::close(fd);
}

/** A started engine running the server, plus its set-up timing. */
struct EngineServer {
    std::unique_ptr<Nvx> nvx;
    std::string endpoint;
    double construct_start_s = 0; ///< construct + start()
    std::uint64_t t0 = 0;         ///< first construction call
    std::uint64_t started = 0;    ///< start() returned
};

EngineServer
startEngine(const ServerShape &shape)
{
    EngineServer e;
    e.endpoint = endpointName(shape.tag);
    e.t0 = nowNs();
    e.nvx = std::make_unique<Nvx>(varan::core::EngineConfig{});
    std::vector<varan::core::VariantFn> variants(
        std::size_t(shape.followers) + 1, serverEntry(shape, e.endpoint));
    if (!e.nvx->start(std::move(variants)).isOk())
        e.nvx.reset();
    e.started = nowNs();
    SpanLog::record(kSpanNvxStart, kLaneDriver, e.t0, e.started,
                    SpanLog::nextId(), 0, 0);
    e.construct_start_s = double(e.started - e.t0) / 1e9;
    return e;
}

StatusReport
tracedStatus(const Nvx &nvx)
{
    const std::uint64_t t = nowNs();
    StatusReport s = nvx.status();
    SpanLog::record(kSpanNvxStatus, kLaneDriver, t, nowNs(),
                    SpanLog::nextId(), 0, 0);
    return s;
}

/**
 * Shut the engine's server down and, with @p check, record how every
 * variant ended. Without @p knock (the server cannot answer) the
 * engine is torn down at a short deadline instead.
 * @return seconds from the shutdown request to the engine's end.
 */
double
stopEngine(const ServerShape &shape, EngineServer &e, Report &report,
           bool check, bool knock = true)
{
    const std::uint64_t t = nowNs();
    if (knock)
        knockShutdown(shape.app, e.endpoint);
    const std::uint64_t w = nowNs();
    auto results = e.nvx->waitFor(knock ? 10000000000ULL : 1000000000ULL);
    SpanLog::record(kSpanNvxWaitFor, kLaneDriver, w, nowNs(),
                    SpanLog::nextId(), 0, 0);
    if (check)
        checkEngineEnd(results, e.nvx->status(), report);
    e.nvx.reset();
    return double(nowNs() - t) / 1e9;
}

/** Engine set-up: construct + start, then one request answered. */
struct SetupSample {
    double setup_s = 0;
    double start_s = 0;
    double first_op_s = 0;
    bool ok = false;
};

/** Time a freshly started engine's first answered request. */
SetupSample
firstOp(const ServerShape &shape, const EngineServer &e)
{
    SetupSample s;
    std::string req, expect;
    probeRequest(shape.app, req, expect);
    int fd = connectTo(e.endpoint, 10.0);
    s.ok = fd >= 0 && exchangeOnce(fd, req, expect, 10.0);
    const std::uint64_t first = nowNs();
    if (fd >= 0)
        ::close(fd);
    s.start_s = e.construct_start_s;
    s.first_op_s = double(first - e.started) / 1e9;
    s.setup_s = double(first - e.t0) / 1e9;
    return s;
}

/** A native server in a plain forked process. */
class NativeServer
{
  public:
    explicit NativeServer(const ServerShape &shape)
        : app_(shape.app), endpoint_(endpointName(shape.tag))
    {
        pid_ = ::fork();
        if (pid_ == 0) {
            ::setpgid(0, 0);
            ::_exit(serverEntry(shape, endpoint_)() & 0xff);
        }
    }

    ~NativeServer() { stop(); }
    NativeServer(const NativeServer &) = delete;
    NativeServer &operator=(const NativeServer &) = delete;

    const std::string &endpoint() const { return endpoint_; }

    /** Shut down (bounded, then killed); @return exited with 0. */
    bool
    stop()
    {
        if (pid_ <= 0)
            return exited_ok_;
        knockShutdown(app_, endpoint_);
        int status = 0;
        const std::uint64_t deadline = nowNs() + 10000000000ULL;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowNs() >= deadline) {
                ::kill(-pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(1000);
        }
        pid_ = -1;
        exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return exited_ok_;
    }

  private:
    App app_;
    std::string endpoint_;
    pid_t pid_ = -1;
    bool exited_ok_ = false;
};

/** The capacity phase, as slices of one kind each. */
enum SliceKind { kNative, kEngine, kEngineTraced, kKinds };

/** Slice length of the capacity phase. Native and engine slices
 *  alternate, so both see the same machine and overhead_x compares
 *  like with like; the run reports medians over slices. */
constexpr double kSliceSec = 0.25;

/** Slices of every round, pooled. */
struct CapacityResult {
    std::vector<double> rate[kKinds]; ///< ops/s per slice
    std::vector<double> cpu_per_op;   ///< engine slices, us
    std::vector<double> busy;         ///< engine slices
    EngineCpu cpu;                    ///< summed over engine slices
    std::uint64_t engine_ops = 0;
    std::uint64_t events = 0;         ///< events streamed in all rounds
    std::uint64_t trace_records = 0;  ///< flight-recorder stamps, too
    bool ok = true;
};

/**
 * One round: alternate closed-loop slices between the native server
 * and the engine, kRoundWarmupSec untimed on each, then @p measure_s
 * on each. In traced runs every other engine slice records spans.
 */
void
runCapacity(Client &native, Client &engine, const EngineProcs &procs,
            double measure_s, bool traced,
            const std::function<void(double)> &engine_tick,
            const std::function<void(bool)> &on_engine_slice,
            CapacityResult &res)
{
    const std::vector<pid_t> generator = {::getpid()};
    const int warm = int(kRoundWarmupSec / kSliceSec);
    const int measured = int(measure_s / kSliceSec);
    int engine_slices = 0;
    for (int i = 0; i < 2 * (warm + measured) && res.ok; ++i) {
        const bool is_native = i % 2 == 0;
        const bool timed = i >= 2 * warm;
        Client &client = is_native ? native : engine;
        SliceKind kind = kNative;
        if (!is_native)
            kind = traced && engine_slices++ % 2 == 1 ? kEngineTraced : kEngine;
        SpanLog::enable(traced && kind != kEngine);
        if (!is_native && on_engine_slice)
            on_engine_slice(true);
        const EngineCpu cpu0 = is_native ? EngineCpu{} : procs.cpu(generator);
        const std::uint64_t failed0 = client.failed();
        const Slice slice = client.closedSlice(
            kSliceSec, is_native || !timed ? std::function<void(double)>{}
                                           : engine_tick);
        if (!is_native && on_engine_slice)
            on_engine_slice(false);
        res.ok = client.failed() == failed0 && slice.ops > 0;
        if (!timed || !res.ok)
            continue;
        res.rate[kind].push_back(double(slice.ops) / slice.seconds);
        if (is_native)
            continue;
        const EngineCpu cpu = procs.cpu(generator) - cpu0;
        res.cpu.leader += cpu.leader;
        res.cpu.followers += cpu.followers;
        res.cpu.coordinator += cpu.coordinator;
        res.engine_ops += slice.ops;
        res.cpu_per_op.push_back(cpu.total() * 1e6 / double(slice.ops));
        res.busy.push_back(slice.busy_share);
    }
    SpanLog::enable(traced);
}

void
runServer(const ServerShape &shape, const Params &params, Report &report)
{
    using varan::bench::median;
    using varan::bench::percentile;
    Rng master(params.seed);
    const std::string values = makeValueBytes(master);
    const std::uint64_t stream_seed = master.next();
    const bool bad_model = params.fault == "bad-model";
    const double cap_s = params.seconds * 0.25; // per side
    const double lat_s = params.seconds * 0.5;

    // --- set-up -------------------------------------------------------
    std::vector<double> setup, start, first_op, teardown;
    auto record_setup = [&](const SetupSample &s) {
        setup.push_back(s.setup_s);
        start.push_back(s.start_s);
        first_op.push_back(s.first_op_s);
    };
    for (int i = 0; i < kSetupReps; ++i) {
        EngineServer e = startEngine(shape);
        const SetupSample s = e.nvx ? firstOp(shape, e) : SetupSample{};
        if (e.nvx)
            teardown.push_back(stopEngine(shape, e, report, false));
        if (!s.ok) {
            report.check("setup", false, "no reply to the set-up probe");
            return;
        }
        record_setup(s);
    }

    // --- capacity: rounds of alternating native and engine slices ----
    CapacityResult cap;
    std::vector<double> lags;
    StatusReport s0 = {}, s1 = {};
    EnginePss cap_pss;
    std::unique_ptr<EngineServer> e;
    std::unique_ptr<Client> client;
    std::uint64_t sent = 0, failed = 0;
    bool stopped = false;
    for (int round = 0; round < kRounds && cap.ok; ++round) {
        const std::uint64_t seed = stream_seed + std::uint64_t(round);
        NativeServer native_server(shape);
        Client native(shape, native_server.endpoint(), seed, &values,
                      bad_model);
        e = std::make_unique<EngineServer>(startEngine(shape));
        if (!e->nvx) {
            report.check("engine_start", false);
            return;
        }
        const SetupSample engine_setup = firstOp(shape, *e);
        if (engine_setup.ok)
            record_setup(engine_setup);
        client = std::make_unique<Client>(shape, e->endpoint, seed, &values,
                                          bad_model);

        const StatusReport first = e->nvx->status();
        const EngineProcs procs = EngineProcs::of(first);
        std::unique_ptr<PeriodicSampler> sampler;
        std::atomic<bool> engine_busy{false};
        if (params.traced) {
            const Nvx *nvx = e->nvx.get();
            const std::uint32_t leader = first.leader;
            const std::uint32_t variants = first.num_variants;
            sampler = std::make_unique<PeriodicSampler>([=, &engine_busy] {
                if (!engine_busy.load())
                    return -1.0; // lag only means something under load
                std::uint64_t lag = 0;
                for (std::uint32_t v = 0; v < variants; ++v) {
                    if (v != leader)
                        lag = std::max(lag, nvx->ringLagOf(v));
                }
                return double(lag);
            });
        }
        std::function<void(double)> tick;
        if (params.fault == "stop-leader" && round == 0) {
            tick = [&stopped, &procs](double elapsed) {
                if (!stopped && elapsed >= 0.1) {
                    ::kill(procs.leader, SIGSTOP);
                    stopped = true;
                }
            };
        }

        s0 = tracedStatus(*e->nvx);
        if (engine_setup.ok && native.connected() && client->connected()) {
            runCapacity(native, *client, procs, cap_s / kRounds,
                        params.traced, tick,
                        [&](bool on) { engine_busy.store(on); }, cap);
        } else {
            cap.ok = false;
        }
        s1 = tracedStatus(*e->nvx);
        cap.events += s1.events_streamed - s0.events_streamed;
        cap.trace_records += s1.trace.trace_records - s0.trace.trace_records;
        if (sampler) {
            sampler->stop();
            lags.insert(lags.end(), sampler->samples().begin(),
                        sampler->samples().end());
        }
        cap_pss = procs.pss();
        native.closeAll();
        report.check("native_exit_0", native_server.stop());
        sent += native.sent();
        failed += native.failed();
        if (round + 1 == kRounds && cap.ok)
            break; // the last round's engine serves the latency phase
        sent += client->sent();
        failed += client->failed();
        client->closeAll();
        // A stopped leader cannot answer the shutdown request.
        stopEngine(shape, *e, report, true, !stopped);
        e.reset();
    }

    // --- latency: open loop on the last round's engine ----------------
    OpenLoop lat;
    double mem_mb = 0;
    if (cap.ok && e) {
        Rng arrivals(stream_seed ^ 0x5bd1e995ULL);
        lat = client->openLoop(shape.rate, lat_s, arrivals);
        mem_mb = EngineProcs::of(e->nvx->status()).pss().total();
        sent += client->sent();
        failed += client->failed();
        client->closeAll();
        stopEngine(shape, *e, report, true);
    }

    report.attempted(sent);
    report.failed(failed);
    report.check("replies_correct", cap.ok && failed == 0,
                 std::to_string(failed) + " failed");
    if (!cap.ok || failed > 0)
        return;

    const double engine_rate = median(cap.rate[kEngine]);
    if (!params.traced) {
        report.metric("setup_s", median(setup), "s");
        report.metric("ops_per_s", engine_rate, "ops/s");
        report.metric("overhead_x", median(cap.rate[kNative]) / engine_rate,
                      "x");
        report.metric("lat_p50_us", median(lat.p50_us), "us");
        report.metric("lat_p90_us", median(lat.p90_us), "us");
        report.metric("cpu_us_per_op", median(cap.cpu_per_op), "us");
        report.metric("mem_mb", mem_mb, "MB");
        return;
    }

    // --- per-layer (traced run) ---------------------------------------
    report.metric("client.attempted", double(sent), "count");
    report.metric("client.failed", double(failed), "count");
    report.metric("client.late_p99_us", percentile(lat.late_us, 99), "us");
    report.metric("client.lat_p99_us", percentile(lat.lat_us, 99), "us");
    report.metric("client.busy_share", median(cap.busy), "ratio");
    reportCore(double(cap.events), s1, double(cap.engine_ops), cap.cpu,
               report);
    reportRing(s1, lags, report);
    reportEngineTrace(double(cap.trace_records), s1, report);
    reportPool(s1.pool, report);
    reportSetup(start, first_op, teardown, report);
    reportMem(cap_pss, report);
    reportTraceOverhead(engine_rate, median(cap.rate[kEngineTraced]),
                        report);
}

} // namespace

void
runKvMixed(const Params &params, Report &report)
{
    runServer({App::Kv, "kv", 2, 2, 20000, 0}, params, report);
}

void
runCacheMt(const Params &params, Report &report)
{
    runServer({App::Cache, "cache", 2, 1, 20000, 2}, params, report);
}

} // namespace vb
