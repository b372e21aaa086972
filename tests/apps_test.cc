/**
 * @file
 * Application tests: protocol/data-structure units for each server,
 * native end-to-end serving, and the paper's scenarios as integration
 * tests — C10k servers under the NVX engine, transparent failover
 * while serving (section 5.1), and multi-revision execution with BPF
 * rewrite rules (section 5.2).
 */

#include <cstdlib>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "apps/cpu_kernels.h"
#include "apps/vcache.h"
#include "apps/vhttpd.h"
#include "apps/vproxy.h"
#include "apps/vqueue.h"
#include "apps/vstore.h"
#include "benchutil/drivers.h"
#include "benchutil/harness.h"
#include "core/nvx.h"
#include "netio/socketio.h"

namespace varan {
namespace {

std::string
uniqueEndpoint(const char *tag)
{
    static std::atomic<int> counter{0};
    return std::string("varan-test-") + tag + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(counter.fetch_add(1));
}

core::EngineConfig
engineConfig()
{
    core::EngineConfig config;
    config.ring.capacity = 128;
    config.shm_bytes = 32 << 20;
    config.ring.progress_timeout_ns = 15000000000ULL;
    return config;
}

// --- vstore units ---

TEST(VstoreTest, ParseCommandSplitsWords)
{
    auto args = apps::vstore::parseCommand("SET key  value");
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args[0], "SET");
    EXPECT_EQ(args[1], "key");
    EXPECT_EQ(args[2], "value");
}

TEST(VstoreTest, ParseCommandHandlesQuotes)
{
    auto args = apps::vstore::parseCommand("SET key \"two words\"");
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args[2], "two words");
}

TEST(VstoreTest, SetGetRoundTrip)
{
    apps::vstore::Store store;
    EXPECT_EQ(store.apply({"SET", "a", "1"}), "+OK\r\n");
    EXPECT_EQ(store.apply({"GET", "a"}), "$1\r\n1\r\n");
    EXPECT_EQ(store.apply({"GET", "missing"}), "$-1\r\n");
}

TEST(VstoreTest, IncrCountsAndRejectsGarbage)
{
    apps::vstore::Store store;
    EXPECT_EQ(store.apply({"INCR", "n"}), ":1\r\n");
    EXPECT_EQ(store.apply({"INCR", "n"}), ":2\r\n");
    store.apply({"SET", "s", "abc"});
    EXPECT_NE(store.apply({"INCR", "s"}).find("-ERR"), std::string::npos);
}

TEST(VstoreTest, HashCommands)
{
    apps::vstore::Store store;
    EXPECT_EQ(store.apply({"HSET", "h", "f1", "v1"}), ":1\r\n");
    EXPECT_EQ(store.apply({"HSET", "h", "f1", "v2"}), ":0\r\n");
    EXPECT_EQ(store.apply({"HGET", "h", "f1"}), "$2\r\nv2\r\n");
    std::string reply = store.apply({"HMGET", "h", "f1", "nope"});
    EXPECT_EQ(reply, "*2\r\n$2\r\nv2\r\n$-1\r\n");
}

TEST(VstoreTest, ListCommands)
{
    apps::vstore::Store store;
    store.apply({"LPUSH", "l", "a"});
    store.apply({"LPUSH", "l", "b"});
    EXPECT_EQ(store.apply({"LRANGE", "l", "0", "-1"}),
              "*2\r\n$1\r\nb\r\n$1\r\na\r\n");
}

TEST(VstoreTest, DelRemovesAcrossTypes)
{
    apps::vstore::Store store;
    store.apply({"SET", "k", "v"});
    store.apply({"HSET", "h", "f", "v"});
    EXPECT_EQ(store.apply({"DEL", "k", "h", "none"}), ":2\r\n");
    EXPECT_EQ(store.size(), 0u);
}

// --- vqueue units ---

TEST(VqueueTest, PutReserveDeleteLifecycle)
{
    apps::vqueue::JobQueue queue;
    std::uint64_t id1 = queue.put("one");
    std::uint64_t id2 = queue.put("two");
    EXPECT_EQ(queue.readyCount(), 2u);
    apps::vqueue::Job job;
    ASSERT_TRUE(queue.reserve(&job));
    EXPECT_EQ(job.id, id1);
    EXPECT_EQ(job.data, "one");
    EXPECT_EQ(queue.reservedCount(), 1u);
    EXPECT_TRUE(queue.erase(id1));
    EXPECT_TRUE(queue.erase(id2)); // still ready
    EXPECT_FALSE(queue.erase(99));
    EXPECT_EQ(queue.readyCount(), 0u);
}

// --- vhttpd units ---

TEST(VhttpdTest, ParsesRequestLineAndKeepAlive)
{
    auto req = apps::vhttpd::parseRequest(
        "GET /page HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_TRUE(req.complete);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/page");
    EXPECT_TRUE(req.keep_alive);

    auto close_req = apps::vhttpd::parseRequest(
        "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_FALSE(close_req.keep_alive);
}

TEST(VhttpdTest, IncompleteRequestIsNotComplete)
{
    auto req = apps::vhttpd::parseRequest("GET / HTTP/1.1\r\nHost:");
    EXPECT_FALSE(req.complete);
}

TEST(VhttpdTest, ResponseCarriesContentLength)
{
    std::string response =
        apps::vhttpd::makeResponse(200, "OK", "hello", true);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
    EXPECT_NE(response.find("keep-alive"), std::string::npos);
    EXPECT_EQ(response.substr(response.size() - 5), "hello");
}

// --- vcache units ---

TEST(VcacheTest, CacheSetGetDelete)
{
    apps::vcache::Cache cache;
    cache.set("k", 7, "data");
    apps::vcache::Entry entry;
    ASSERT_TRUE(cache.get("k", &entry));
    EXPECT_EQ(entry.flags, 7u);
    EXPECT_EQ(entry.data, "data");
    EXPECT_TRUE(cache.erase("k"));
    EXPECT_FALSE(cache.get("k", &entry));
    EXPECT_FALSE(cache.erase("k"));
}

// --- CPU kernels ---

TEST(CpuKernelsTest, SuitesHaveTwelveEach)
{
    EXPECT_EQ(apps::cpu::cpu2000Suite().size(), 12u);
    EXPECT_EQ(apps::cpu::cpu2006Suite().size(), 12u);
}

TEST(CpuKernelsTest, KernelsAreDeterministic)
{
    for (const auto &kernel : apps::cpu::cpu2000Suite()) {
        std::uint64_t a = kernel.run(1);
        std::uint64_t b = kernel.run(1);
        EXPECT_EQ(a, b) << kernel.name;
    }
    for (const auto &kernel : apps::cpu::cpu2006Suite()) {
        std::uint64_t a = kernel.run(1);
        std::uint64_t b = kernel.run(1);
        EXPECT_EQ(a, b) << kernel.name;
    }
}

// --- native end-to-end serving ---

TEST(ServeNativeTest, VstoreServesClients)
{
    std::string endpoint = uniqueEndpoint("store");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        apps::vstore::Options options;
        options.endpoint = endpoint;
        ::_exit(apps::vstore::serve(options));
    }
    auto probe = bench::kvCommandLatency(endpoint, "PING");
    EXPECT_TRUE(probe.ok);
    EXPECT_EQ(probe.reply, "+PONG\r\n");
    auto result = bench::kvBench(endpoint, 2, 50);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.total_ops, 100);
    bench::kvShutdown(endpoint);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeNativeTest, VhttpdServesKeepAlive)
{
    std::string endpoint = uniqueEndpoint("httpd");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        apps::vhttpd::Options options;
        options.endpoint = endpoint;
        ::_exit(apps::vhttpd::serve(options));
    }
    auto result = bench::httpBench(endpoint, 2, 20);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.total_ops, 40);
    bench::httpShutdown(endpoint);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeNativeTest, VqueueHandlesJobs)
{
    std::string endpoint = uniqueEndpoint("queue");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        apps::vqueue::Options options;
        options.endpoint = endpoint;
        ::_exit(apps::vqueue::serve(options));
    }
    auto result = bench::queueBench(endpoint, 2, 25, 256);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.total_ops, 50);
    bench::queueShutdown(endpoint);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeNativeTest, VcacheThreadsServe)
{
    std::string endpoint = uniqueEndpoint("cache");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        apps::vcache::Options options;
        options.endpoint = endpoint;
        options.workers = 2;
        ::_exit(apps::vcache::serve(options));
    }
    auto result = bench::cacheBench(endpoint, 2, 50, 50);
    EXPECT_TRUE(result.ok);
    bench::cacheShutdown(endpoint);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeNativeTest, VproxyPreforkServes)
{
    std::string endpoint = uniqueEndpoint("proxy");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        apps::vproxy::Options options;
        options.endpoint = endpoint;
        options.workers = 2;
        ::_exit(apps::vproxy::serve(options));
    }
    auto result = bench::httpBench(endpoint, 2, 15);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.total_ops, 30);
    bench::httpShutdown(endpoint);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

/** One keep-alive GET on an open connection; false on error, EOF or a
 *  response that does not arrive within the socket's receive timeout. */
bool
httpGetKeepAlive(int fd)
{
    const std::string request = "GET / HTTP/1.1\r\nHost: varan\r\n\r\n";
    if (!netio::sendAll(fd, request.data(), request.size()).isOk())
        return false;
    auto head = netio::recvUntil(fd, "\r\n\r\n");
    if (!head.ok())
        return false;
    const std::string &data = head.value();
    const std::size_t header_end = data.find("\r\n\r\n");
    const std::size_t cl = data.find("Content-Length: ");
    if (header_end == std::string::npos || cl == std::string::npos)
        return false;
    const std::size_t body_len =
        std::strtoul(data.c_str() + cl + 16, nullptr, 10);
    std::size_t have = data.size() - (header_end + 4);
    while (have < body_len) {
        auto more = netio::recvSome(fd, body_len - have);
        if (!more.ok() || more.value().empty())
            return false;
        have += more.value().size();
    }
    return true;
}

// --- servers under the NVX engine ---

TEST(ServeNvxTest, VstoreWithTwoFollowers)
{
    std::string endpoint = uniqueEndpoint("nvx-store");
    core::Nvx nvx(engineConfig());
    auto server = [endpoint]() -> int {
        apps::vstore::Options options;
        options.endpoint = endpoint;
        return apps::vstore::serve(options);
    };
    ASSERT_TRUE(nvx.start({server, server, server}).isOk());

    auto result = bench::kvBench(endpoint, 2, 50);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.total_ops, 100);
    bench::kvShutdown(endpoint);

    auto results = nvx.waitFor(30000000000ULL);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
        EXPECT_EQ(r.status, 0);
    }
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
    EXPECT_GT(nvx.eventsStreamed(), 100u);
}

TEST(ServeNvxTest, VhttpdWithOneFollower)
{
    std::string endpoint = uniqueEndpoint("nvx-httpd");
    core::Nvx nvx(engineConfig());
    auto server = [endpoint]() -> int {
        apps::vhttpd::Options options;
        options.endpoint = endpoint;
        return apps::vhttpd::serve(options);
    };
    ASSERT_TRUE(nvx.start({server, server}).isOk());
    auto result = bench::httpBench(endpoint, 2, 25);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.total_ops, 50);
    bench::httpShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    for (const auto &r : results)
        EXPECT_FALSE(r.crashed);
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

TEST(ServeNvxTest, VproxyKeepAliveClientsNeverStarve)
{
    // All vproxy workers poll one shared listen socket and all wake for
    // every connection; only one of them gets it. Clients here connect
    // one at a time and never open another connection, and after every
    // new connection each client issues one request on its own. A
    // worker that lost an accept race and sat blocked in accept4 would
    // leave its accepted clients unserved until some later connection
    // happened to unblock it. Each response must arrive within the
    // receive timeout, and after /__shutdown every variant must exit 0:
    // workers that die to a signal mid-stream leave the follower
    // variant waiting forever.
    std::string endpoint = uniqueEndpoint("nvx-proxy");
    core::Nvx nvx(engineConfig());
    auto server = [endpoint]() -> int {
        apps::vproxy::Options options;
        options.endpoint = endpoint;
        options.workers = 4;
        options.page_bytes = 256;
        return apps::vproxy::serve(options);
    };
    ASSERT_TRUE(nvx.start({server, server}).isOk());

    constexpr int kClients = 16;
    const struct timeval deadline = {5, 0};
    std::vector<int> fds;
    bool starved = false;
    for (int c = 0; c < kClients && !starved; ++c) {
        auto conn = netio::connectAbstract(endpoint);
        ASSERT_TRUE(conn.ok());
        ASSERT_EQ(::setsockopt(conn.value(), SOL_SOCKET, SO_RCVTIMEO,
                               &deadline, sizeof(deadline)),
                  0);
        fds.push_back(conn.value());
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!httpGetKeepAlive(fds[i])) {
                ADD_FAILURE() << "client " << i << " unserved after "
                              << fds.size() << " connections";
                starved = true;
                break;
            }
        }
    }

    for (int fd : fds)
        ::close(fd);
    bench::httpShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    for (const auto &r : results) {
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
        EXPECT_EQ(r.status, 0) << "variant " << r.variant;
    }
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

TEST(ServeNvxTest, VcacheMultithreadedUnderEngine)
{
    std::string endpoint = uniqueEndpoint("nvx-cache");
    core::Nvx nvx(engineConfig());
    auto server = [endpoint]() -> int {
        apps::vcache::Options options;
        options.endpoint = endpoint;
        options.workers = 2;
        return apps::vcache::serve(options);
    };
    ASSERT_TRUE(nvx.start({server, server}).isOk());
    auto result = bench::cacheBench(endpoint, 2, 30, 40);
    EXPECT_TRUE(result.ok);
    bench::cacheShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    for (const auto &r : results)
        EXPECT_FALSE(r.crashed) << "variant " << r.variant;
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

TEST(ServeNvxTest, TransparentFailoverWhileServing)
{
    // Section 5.1: run a buggy revision as leader; the HMGET request
    // that crashes it is answered by the promoted follower, and
    // service continues without interruption.
    std::string endpoint = uniqueEndpoint("nvx-failover");
    core::Nvx nvx(engineConfig());
    auto buggy = [endpoint]() -> int {
        apps::vstore::Options options;
        options.endpoint = endpoint;
        options.revision.crash_on_hmget = true; // revision 7fb16ba
        return apps::vstore::serve(options);
    };
    auto healthy = [endpoint]() -> int {
        apps::vstore::Options options;
        options.endpoint = endpoint;
        return apps::vstore::serve(options);
    };
    // Buggy revision leads; healthy revision follows.
    ASSERT_TRUE(nvx.start({buggy, healthy}).isOk());

    auto before = bench::kvCommandLatency(endpoint, "SET k v");
    ASSERT_TRUE(before.ok);
    ASSERT_EQ(before.reply, "+OK\r\n");

    // The request that kills the buggy leader.
    auto crash = bench::kvCommandLatency(endpoint, "HMGET h f");
    EXPECT_TRUE(crash.ok) << "request lost during failover";
    EXPECT_EQ(crash.reply.substr(0, 1), "*");

    // Subsequent requests flow as if nothing happened — served by the
    // promoted follower over the same connection-less protocol.
    auto after = bench::kvCommandLatency(endpoint, "GET k");
    EXPECT_TRUE(after.ok);
    EXPECT_EQ(after.reply, "$1\r\nv\r\n");

    bench::kvShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    EXPECT_TRUE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed);
    EXPECT_EQ(nvx.currentLeader(), 1);
}

TEST(ServeNvxTest, MultiRevisionHttpdWithRewriteRules)
{
    // Section 5.2: revision 2435 (leader) with revision 2436
    // (follower), which makes two additional syscalls (getuid,
    // getgid); the Listing 1 rule resolves the divergence.
    std::string endpoint = uniqueEndpoint("nvx-multirev");
    core::EngineConfig config = engineConfig();
    config.rewrite_rules.push_back(
        "ld event[0]\n"
        "jeq #108, getegid /* __NR_getegid */\n"
        "jeq #2, open /* __NR_open */\n"
        "jmp bad\n"
        "getegid:\n"
        "ld [0]\n"
        "jeq #102, good /* __NR_getuid */\n"
        "open:\n"
        "ld [0]\n"
        "jeq #104, good /* __NR_getgid */\n"
        "bad: ret #0\n"
        "good: ret #0x7fff0000\n");

    // The filter resolves the second divergence (getgid vs open) only
    // when the permission checks precede an actual open — lighttpd's
    // file-serving behaviour, reproduced via docroot_file.
    char docroot[] = "/tmp/varan-docroot-XXXXXX";
    int doc = ::mkstemp(docroot);
    ASSERT_GE(doc, 0);
    ASSERT_EQ(::write(doc, "<html>hi</html>", 15), 15);
    ::close(doc);
    std::string doc_path(docroot);

    auto rev2435 = [endpoint, doc_path]() -> int {
        apps::vhttpd::Options o;
        o.endpoint = endpoint;
        o.docroot_file = doc_path;
        o.revision.issetugid_checks = false;
        return apps::vhttpd::serve(o);
    };
    auto rev2436 = [endpoint, doc_path]() -> int {
        apps::vhttpd::Options o;
        o.endpoint = endpoint;
        o.docroot_file = doc_path;
        o.revision.issetugid_checks = true; // +getuid +getgid
        return apps::vhttpd::serve(o);
    };

    core::Nvx nvx(config);
    ASSERT_TRUE(nvx.start({rev2435, rev2436}).isOk());
    auto result = bench::httpBench(endpoint, 1, 10);
    EXPECT_TRUE(result.ok);
    bench::httpShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    ::unlink(doc_path.c_str());
    EXPECT_FALSE(results[0].crashed);
    EXPECT_FALSE(results[1].crashed) << "rule failed to resolve";
    EXPECT_GT(nvx.divergencesResolved(), 0u);
    EXPECT_EQ(nvx.divergencesFatal(), 0u);
}

TEST(ServeNvxTest, MultiRevisionWithoutRulesKillsFollower)
{
    // The same revision pair minus the rule: classic lockstep-style
    // failure, the follower dies on its first extra getuid.
    std::string endpoint = uniqueEndpoint("nvx-norules");
    auto rev2435 = [endpoint]() -> int {
        apps::vhttpd::Options o;
        o.endpoint = endpoint;
        return apps::vhttpd::serve(o);
    };
    auto rev2436 = [endpoint]() -> int {
        apps::vhttpd::Options o;
        o.endpoint = endpoint;
        o.revision.issetugid_checks = true;
        return apps::vhttpd::serve(o);
    };
    core::Nvx nvx(engineConfig());
    ASSERT_TRUE(nvx.start({rev2435, rev2436}).isOk());
    auto result = bench::httpBench(endpoint, 1, 5);
    EXPECT_TRUE(result.ok); // leader keeps serving
    bench::httpShutdown(endpoint);
    auto results = nvx.waitFor(30000000000ULL);
    EXPECT_FALSE(results[0].crashed);
    EXPECT_TRUE(results[1].crashed);
    EXPECT_GE(nvx.divergencesFatal(), 1u);
}

} // namespace
} // namespace varan
