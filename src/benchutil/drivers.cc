#include "benchutil/drivers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "benchutil/stats.h"
#include "common/clock.h"
#include "netio/socketio.h"
#include "syscalls/sys.h"

// Same GCC 12 -O3 -Wrestrict false positive as vstore.cc (bogus
// overlap bounds from fully-inlined libstdc++ string concatenation;
// the PR105329 family, fixed in GCC 13) — the memcached-style request
// builders in cacheBench() trip it under Release + -Werror.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace varan::bench {

namespace {

/** One blocking request/response exchange; returns latency in us. */
double
exchange(int fd, const std::string &request, std::string *reply_out,
         const char *terminator)
{
    std::uint64_t t0 = monotonicNs();
    if (!netio::sendAll(fd, request.data(), request.size()).isOk())
        return -1;
    auto reply = netio::recvUntil(fd, terminator);
    if (!reply.ok() || reply.value().empty())
        return -1;
    if (reply_out)
        *reply_out = reply.value();
    return double(monotonicNs() - t0) / 1000.0;
}

struct WorkerTally {
    double ops = 0;
    std::vector<double> latencies;
    bool ok = true;
};

LoadResult
tally(std::vector<WorkerTally> &workers, double wall_seconds)
{
    LoadResult result;
    std::vector<double> latencies;
    for (auto &w : workers) {
        result.total_ops += w.ops;
        result.ok = result.ok || w.ok;
        latencies.insert(latencies.end(), w.latencies.begin(),
                         w.latencies.end());
        if (!w.ok)
            result.ok = false;
    }
    result.wall_seconds = wall_seconds;
    result.ops_per_sec =
        wall_seconds > 0 ? result.total_ops / wall_seconds : 0;
    result.latency_us_p50 = percentile(latencies, 50);
    result.latency_us_p99 = percentile(latencies, 99);
    return result;
}

} // namespace

LoadResult
kvBench(const std::string &endpoint, int clients, int requests_per_client)
{
    std::vector<WorkerTally> tallies(clients);
    std::uint64_t t0 = monotonicNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            WorkerTally &mine = tallies[c];
            auto conn = netio::connectAbstract(endpoint);
            if (!conn.ok()) {
                mine.ok = false;
                return;
            }
            int fd = conn.value();
            mine.latencies.reserve(requests_per_client);
            // redis-benchmark's default mix across command types, with
            // per-client key ranges so variants never race on a key.
            for (int i = 0; i < requests_per_client; ++i) {
                std::string key =
                    "key:" + std::to_string(c) + ":" +
                    std::to_string(i % 100);
                std::string req;
                switch (i % 5) {
                  case 0:
                    req = "SET " + key + " value" + std::to_string(i) +
                          "\r\n";
                    break;
                  case 1:
                    req = "GET " + key + "\r\n";
                    break;
                  case 2:
                    req = "INCR counter:" + std::to_string(c) + "\r\n";
                    break;
                  case 3:
                    req = "LPUSH list:" + std::to_string(c) + " item" +
                          std::to_string(i) + "\r\n";
                    break;
                  default:
                    req = "PING\r\n";
                    break;
                }
                double us = exchange(fd, req, nullptr, "\r\n");
                if (us < 0) {
                    mine.ok = false;
                    break;
                }
                mine.latencies.push_back(us);
                mine.ops += 1;
            }
            sys::vclose(fd);
        });
    }
    for (auto &t : threads)
        t.join();
    return tally(tallies, double(monotonicNs() - t0) / 1e9);
}

LatencyProbe
kvCommandLatency(const std::string &endpoint, const std::string &command)
{
    LatencyProbe probe;
    auto conn = netio::connectAbstract(endpoint);
    if (!conn.ok())
        return probe;
    int fd = conn.value();
    std::string reply;
    double us = exchange(fd, command + "\r\n", &reply, "\r\n");
    sys::vclose(fd);
    if (us >= 0) {
        probe.us = us;
        probe.ok = true;
        probe.reply = reply;
    }
    return probe;
}

void
kvShutdown(const std::string &endpoint)
{
    auto conn = netio::connectAbstract(endpoint, 2000);
    if (!conn.ok())
        return;
    netio::sendAll(conn.value(), "SHUTDOWN\r\n", 10);
    netio::recvUntil(conn.value(), "\r\n");
    sys::vclose(conn.value());
}

void
queueShutdown(const std::string &endpoint)
{
    auto conn = netio::connectAbstract(endpoint, 2000);
    if (!conn.ok())
        return;
    netio::sendAll(conn.value(), "shutdown\r\n", 10);
    netio::recvUntil(conn.value(), "\r\n");
    sys::vclose(conn.value());
}

void
cacheShutdown(const std::string &endpoint)
{
    auto conn = netio::connectAbstract(endpoint, 2000);
    if (!conn.ok())
        return;
    netio::sendAll(conn.value(), "shutdown\r\n", 10);
    netio::recvUntil(conn.value(), "\r\n");
    sys::vclose(conn.value());
}

LoadResult
cacheBench(const std::string &endpoint, int clients, int initial_pairs,
           int ops_per_client)
{
    // memslap protocol: an initial load phase, then the timed mix.
    {
        auto conn = netio::connectAbstract(endpoint);
        if (!conn.ok())
            return {};
        int fd = conn.value();
        for (int i = 0; i < initial_pairs; ++i) {
            std::string key = "load:" + std::to_string(i);
            std::string data = "x" + std::to_string(i);
            std::string req = "set " + key + " 0 0 " +
                              std::to_string(data.size()) + "\r\n" +
                              data + "\r\n";
            if (exchange(fd, req, nullptr, "\r\n") < 0)
                break;
        }
        sys::vclose(fd);
    }

    // Each client works its own slice of the loaded keys, as kvBench
    // does: two clients (served by two vcache workers) racing on one
    // key would order their updates differently in every variant.
    const int slice = std::max(1, initial_pairs / std::max(1, clients));
    std::vector<WorkerTally> tallies(clients);
    std::uint64_t t0 = monotonicNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            WorkerTally &mine = tallies[c];
            auto conn = netio::connectAbstract(endpoint);
            if (!conn.ok()) {
                mine.ok = false;
                return;
            }
            int fd = conn.value();
            for (int i = 0; i < ops_per_client; ++i) {
                std::string key =
                    "load:" + std::to_string(c * slice + (i * 13) % slice);
                std::string req;
                const char *term;
                if (i % 10 == 0) {
                    std::string data = "v" + std::to_string(i);
                    req = "set " + key + " 0 0 " +
                          std::to_string(data.size()) + "\r\n" + data +
                          "\r\n";
                    term = "\r\n";
                } else {
                    req = "get " + key + "\r\n";
                    term = "END\r\n";
                }
                double us = exchange(fd, req, nullptr, term);
                if (us < 0) {
                    mine.ok = false;
                    break;
                }
                mine.latencies.push_back(us);
                mine.ops += 1;
            }
            sys::vclose(fd);
        });
    }
    for (auto &t : threads)
        t.join();
    return tally(tallies, double(monotonicNs() - t0) / 1e9);
}

LoadResult
httpBench(const std::string &endpoint, int connections,
          int requests_per_connection)
{
    std::vector<WorkerTally> tallies(connections);
    std::uint64_t t0 = monotonicNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            WorkerTally &mine = tallies[c];
            auto conn = netio::connectAbstract(endpoint);
            if (!conn.ok()) {
                mine.ok = false;
                return;
            }
            int fd = conn.value();
            const std::string request =
                "GET /index.html HTTP/1.1\r\nHost: varan\r\n\r\n";
            for (int i = 0; i < requests_per_connection; ++i) {
                std::uint64_t r0 = monotonicNs();
                if (!netio::sendAll(fd, request.data(), request.size())
                         .isOk()) {
                    mine.ok = false;
                    break;
                }
                // Read headers, then the advertised body length.
                auto head = netio::recvUntil(fd, "\r\n\r\n");
                if (!head.ok() || head.value().empty()) {
                    mine.ok = false;
                    break;
                }
                std::string data = head.value();
                std::size_t cl = data.find("Content-Length: ");
                std::size_t body_len =
                    cl == std::string::npos
                        ? 0
                        : std::strtoul(data.c_str() + cl + 16, nullptr,
                                       10);
                std::size_t header_end = data.find("\r\n\r\n") + 4;
                std::size_t have = data.size() - header_end;
                while (have < body_len) {
                    auto more = netio::recvSome(fd, body_len - have);
                    if (!more.ok() || more.value().empty())
                        break;
                    have += more.value().size();
                }
                mine.latencies.push_back(double(monotonicNs() - r0) /
                                         1000.0);
                mine.ops += 1;
            }
            sys::vclose(fd);
        });
    }
    for (auto &t : threads)
        t.join();
    return tally(tallies, double(monotonicNs() - t0) / 1e9);
}

void
httpShutdown(const std::string &endpoint)
{
    auto conn = netio::connectAbstract(endpoint, 2000);
    if (!conn.ok())
        return;
    const std::string request =
        "GET /__shutdown HTTP/1.1\r\nHost: varan\r\n\r\n";
    netio::sendAll(conn.value(), request.data(), request.size());
    netio::recvUntil(conn.value(), "\r\n\r\n");
    sys::vclose(conn.value());
}

LoadResult
queueBench(const std::string &endpoint, int workers, int pushes_per_worker,
           int payload_bytes)
{
    std::vector<WorkerTally> tallies(workers);
    std::uint64_t t0 = monotonicNs();
    std::vector<std::thread> threads;
    const std::string payload(static_cast<std::size_t>(payload_bytes),
                              'j');
    for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            WorkerTally &mine = tallies[w];
            auto conn = netio::connectAbstract(endpoint);
            if (!conn.ok()) {
                mine.ok = false;
                return;
            }
            int fd = conn.value();
            for (int i = 0; i < pushes_per_worker; ++i) {
                std::string put = "put 0 0 60 " +
                                  std::to_string(payload.size()) +
                                  "\r\n" + payload + "\r\n";
                std::string reply;
                double us = exchange(fd, put, &reply, "\r\n");
                if (us < 0 || reply.rfind("INSERTED", 0) != 0) {
                    mine.ok = false;
                    break;
                }
                mine.latencies.push_back(us);
                mine.ops += 1;
            }
            sys::vclose(fd);
        });
    }
    for (auto &t : threads)
        t.join();
    return tally(tallies, double(monotonicNs() - t0) / 1e9);
}

} // namespace varan::bench
