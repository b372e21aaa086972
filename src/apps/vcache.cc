#include "apps/vcache.h"

#include <array>
#include <cstring>
#include <mutex>
#include <sys/epoll.h>

#include "common/checksum.h"
#include "core/nvx.h"
#include "netio/eventloop.h"
#include "netio/socketio.h"
#include "syscalls/sys.h"

namespace varan::apps::vcache {

struct Cache::Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
};

Cache::Cache(std::size_t shards)
{
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

Cache::~Cache() = default;

std::size_t
Cache::shardOf(const std::string &key) const
{
    return crc32c(key.data(), key.size()) % shards_.size();
}

bool
Cache::set(const std::string &key, std::uint32_t flags, std::string data)
{
    Shard &shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.map[key] = Entry{flags, std::move(data)};
    return true;
}

bool
Cache::get(const std::string &key, Entry *out) const
{
    const Shard &shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> guard(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end())
        return false;
    *out = it->second;
    return true;
}

bool
Cache::erase(const std::string &key)
{
    Shard &shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> guard(shard.mutex);
    return shard.map.erase(key) > 0;
}

std::size_t
Cache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> guard(shard->mutex);
        total += shard->map.size();
    }
    return total;
}

namespace {

struct Client {
    std::string inbuf;
};

/** One worker thread: drains its handoff pipe and serves connections. */
void
workerLoop(Cache &cache, int handoff_rd, int shutdown_wr)
{
    netio::EventLoop loop;
    std::unordered_map<int, Client> clients;

    std::function<void(int)> close_client = [&](int fd) {
        loop.remove(fd);
        clients.erase(fd);
        sys::vclose(fd);
    };

    std::function<std::function<void(std::uint32_t)>(int)> on_client =
        [&](int fd) {
            return [&, fd](std::uint32_t events) {
                if (events & (EPOLLHUP | EPOLLERR)) {
                    close_client(fd);
                    return;
                }
                char buf[4096];
                long n = sys::vread(fd, buf, sizeof(buf));
                if (n <= 0) {
                    close_client(fd);
                    return;
                }
                Client &client = clients[fd];
                client.inbuf.append(buf, static_cast<std::size_t>(n));
                for (;;) {
                    std::size_t eol = client.inbuf.find("\r\n");
                    if (eol == std::string::npos)
                        break;
                    std::string line = client.inbuf.substr(0, eol);
                    if (line.rfind("set ", 0) == 0) {
                        // set <key> <flags> <exptime> <bytes>
                        char key[256];
                        unsigned flags = 0, exp = 0, bytes = 0;
                        if (std::sscanf(line.c_str(), "set %255s %u %u %u",
                                        key, &flags, &exp, &bytes) != 4) {
                            client.inbuf.erase(0, eol + 2);
                            netio::sendAll(fd, "CLIENT_ERROR bad set\r\n",
                                           22);
                            continue;
                        }
                        if (client.inbuf.size() < eol + 2 + bytes + 2)
                            break; // wait for the body
                        std::string data =
                            client.inbuf.substr(eol + 2, bytes);
                        client.inbuf.erase(0, eol + 2 + bytes + 2);
                        cache.set(key, flags, std::move(data));
                        netio::sendAll(fd, "STORED\r\n", 8);
                        continue;
                    }
                    client.inbuf.erase(0, eol + 2);
                    if (line.rfind("get ", 0) == 0) {
                        std::string key = line.substr(4);
                        Entry entry;
                        if (cache.get(key, &entry)) {
                            std::string reply =
                                "VALUE " + key + " " +
                                std::to_string(entry.flags) + " " +
                                std::to_string(entry.data.size()) +
                                "\r\n" + entry.data + "\r\nEND\r\n";
                            netio::sendAll(fd, reply.data(), reply.size());
                        } else {
                            netio::sendAll(fd, "END\r\n", 5);
                        }
                    } else if (line.rfind("delete ", 0) == 0) {
                        const char *reply = cache.erase(line.substr(7))
                                                ? "DELETED\r\n"
                                                : "NOT_FOUND\r\n";
                        netio::sendAll(fd, reply, std::strlen(reply));
                    } else if (line == "version") {
                        netio::sendAll(fd, "VERSION 1.4.17\r\n", 16);
                    } else if (line == "quit") {
                        close_client(fd);
                        return;
                    } else if (line == "shutdown") {
                        netio::sendAll(fd, "BYE\r\n", 5);
                        // Tell the acceptor through the event stream
                        // (a pipe write) so every variant shuts down at
                        // the same point in its replicated history.
                        char one = 1;
                        sys::vwrite(shutdown_wr, &one, 1);
                        loop.stop();
                        return;
                    } else {
                        netio::sendAll(fd, "ERROR\r\n", 7);
                    }
                }
            };
        };

    // The handoff pipe delivers new connection descriptors (as 4-byte
    // numbers, valid here because every variant mirrors the leader's
    // numbering). A zero closes the worker down.
    loop.add(handoff_rd, EPOLLIN, [&](std::uint32_t) {
        std::int32_t fd = 0;
        long n = sys::vread(handoff_rd, &fd, sizeof(fd));
        if (n != sizeof(fd) || fd == 0) {
            loop.stop();
            return;
        }
        clients[fd] = Client{};
        loop.add(fd, EPOLLIN, on_client(fd));
    });

    loop.run(50);
    for (auto &entry : clients)
        sys::vclose(entry.first);
}

} // namespace

int
serve(const Options &options)
{
    auto listen = netio::listenAbstract(options.endpoint);
    if (!listen.ok())
        return 65;
    const int listen_fd = listen.value();

    Cache cache;

    // Shutdown travels through a pipe: the syscalls involved replicate
    // through the event stream, keeping every variant's accept loop in
    // lockstep about when to stop.
    int shutdown_pipe[2];
    if (sys::vpipe2(shutdown_pipe, 0) < 0)
        return 68;

    // Handoff pipes, one per worker, created before the workers spawn
    // so the descriptors replicate in order.
    std::vector<std::array<int, 2>> pipes(options.workers);
    for (auto &p : pipes) {
        int fds[2];
        if (sys::vpipe2(fds, 0) < 0)
            return 67;
        p = {fds[0], fds[1]};
    }

    std::vector<std::unique_ptr<core::VThread>> workers;
    workers.reserve(options.workers);
    for (int w = 0; w < options.workers; ++w) {
        int rd = pipes[w][0];
        int sd = shutdown_pipe[1];
        workers.push_back(std::make_unique<core::VThread>(
            [&cache, rd, sd] { workerLoop(cache, rd, sd); }));
    }

    // Acceptor: distribute connections round-robin (deterministic).
    netio::EventLoop loop;
    std::uint64_t accepted = 0;
    loop.add(listen_fd, EPOLLIN, [&](std::uint32_t) {
        long fd = netio::acceptConnection(listen_fd, false);
        if (fd < 0)
            return;
        int w = static_cast<int>(accepted++ %
                                 static_cast<std::uint64_t>(
                                     options.workers));
        std::int32_t fd32 = static_cast<std::int32_t>(fd);
        sys::vwrite(pipes[w][1], &fd32, sizeof(fd32));
    });
    loop.add(shutdown_pipe[0], EPOLLIN, [&](std::uint32_t) {
        char byte = 0;
        sys::vread(shutdown_pipe[0], &byte, 1);
        loop.stop();
    });

    loop.run(50);

    // Wind the workers down: a zero on each pipe stops the loop.
    for (int w = 0; w < options.workers; ++w) {
        std::int32_t zero = 0;
        sys::vwrite(pipes[w][1], &zero, sizeof(zero));
    }
    for (auto &worker : workers)
        worker->join();
    for (auto &p : pipes) {
        sys::vclose(p[0]);
        sys::vclose(p[1]);
    }
    sys::vclose(shutdown_pipe[0]);
    sys::vclose(shutdown_pipe[1]);
    sys::vclose(listen_fd);
    return 0;
}

} // namespace varan::apps::vcache
