#include "apps/vproxy.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

#include "apps/vhttpd.h"
#include "netio/eventloop.h"
#include "netio/socketio.h"
#include "syscalls/sys.h"

namespace varan::apps::vproxy {

namespace {

struct Client {
    std::string inbuf;
};

/** Worker process: accept + serve until /__shutdown (then tell the
 *  master) or until the master's stop pipe turns readable. */
int
workerMain(int listen_fd, int shutdown_wr, int stop_rd,
           std::size_t page_bytes)
{
    netio::EventLoop loop;
    if (!loop.valid())
        return 66;
    std::string page(page_bytes, 'x');
    std::unordered_map<int, Client> clients;

    std::function<void(int)> close_client = [&](int fd) {
        loop.remove(fd);
        clients.erase(fd);
        sys::vclose(fd);
    };

    auto on_client = [&](int fd) {
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
                vhttpd::Request req = vhttpd::parseRequest(client.inbuf);
                if (!req.complete)
                    break;
                client.inbuf.erase(0, req.consumed);
                if (req.path == "/__shutdown") {
                    std::string bye =
                        vhttpd::makeResponse(200, "OK", "bye", false);
                    netio::sendAll(fd, bye.data(), bye.size());
                    char one = 1;
                    sys::vwrite(shutdown_wr, &one, 1);
                    loop.stop();
                    return;
                }
                std::string response = vhttpd::makeResponse(
                    200, "OK", page, req.keep_alive);
                netio::sendAll(fd, response.data(), response.size());
                if (!req.keep_alive) {
                    close_client(fd);
                    return;
                }
            }
        };
    };

    loop.add(stop_rd, EPOLLIN, [&](std::uint32_t) { loop.stop(); });
    loop.add(listen_fd, EPOLLIN, [&](std::uint32_t) {
        long fd = netio::acceptConnection(listen_fd, false);
        if (fd < 0)
            return; // EAGAIN: another worker won the race
        clients[static_cast<int>(fd)] = Client{};
        loop.add(static_cast<int>(fd), EPOLLIN,
                 on_client(static_cast<int>(fd)));
    });

    loop.run(50);
    for (auto &entry : clients)
        sys::vclose(entry.first);
    return 0;
}

} // namespace

int
serve(const Options &options)
{
    auto listen = netio::listenAbstract(options.endpoint);
    if (!listen.ok())
        return 65;
    const int listen_fd = listen.value();
    // Every worker polls this one socket, and all of them wake for each
    // connection. The losers of the accept race must see EAGAIN rather
    // than block in accept4 while their accepted clients go unserved.
    if (sys::vfcntl(listen_fd, F_SETFL, O_NONBLOCK) < 0)
        return 65;

    // Workers announce shutdown over this pipe (streamed syscalls, so
    // every variant's master reacts at the same stream position).
    int shutdown_pipe[2];
    if (sys::vpipe2(shutdown_pipe, 0) < 0)
        return 67;
    // The master ends the workers through this one: once it is
    // readable, every worker leaves its loop and exits on its own. A
    // signal would kill a worker at an arbitrary point of its stream,
    // which a follower's replica cannot replay.
    int stop_pipe[2];
    if (sys::vpipe2(stop_pipe, 0) < 0)
        return 67;

    std::vector<pid_t> workers;
    for (int w = 0; w < options.workers; ++w) {
        long pid = sys::invoke(SYS_fork);
        if (pid < 0)
            return 68;
        if (pid == 0) {
            int status = workerMain(listen_fd, shutdown_pipe[1],
                                    stop_pipe[0], options.page_bytes);
            sys::vexit(status);
        }
        workers.push_back(static_cast<pid_t>(pid));
    }

    // Master parks on the shutdown pipe (a blocking read through the
    // engine), stops every worker, and reaps its own children (waitpid
    // is process-local: each variant waits for its own).
    char byte = 0;
    sys::vread(shutdown_pipe[0], &byte, 1);
    sys::vwrite(stop_pipe[1], &byte, 1);
    for (pid_t pid : workers) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    sys::vclose(stop_pipe[0]);
    sys::vclose(stop_pipe[1]);
    sys::vclose(shutdown_pipe[0]);
    sys::vclose(shutdown_pipe[1]);
    sys::vclose(listen_fd);
    return 0;
}

} // namespace varan::apps::vproxy
