/**
 * @file
 * Section 5.5 (extension): multi-node event shipping throughput.
 *
 * An artificial leader publishes a payload-free syscall stream into a
 * tuple ring; a wire::Shipper drains it through a socketpair to a
 * wire::Receiver re-materializing the stream into a remote layout,
 * where a drain thread plays the follower. The knob is the ship batch
 * (events per wire frame): batch 1 degenerates to per-event shipping
 * (one frame + one gather-write + one publish per event), larger
 * batches amortize framing, wakeups and syscalls — the DMON-style
 * relaxed-batching claim, measured end to end.
 *
 * The fan-out section measures the per-peer credit isolation of the
 * v3 session table: one shipper feeding two receivers, once with both
 * live and once with one peer stalled (it handshakes, then never
 * serves a frame). The live peer's throughput must not collapse when
 * its sibling stalls — the drain is gated by the fastest peer and the
 * straggler is evicted once it falls past retain_limit.
 *
 * Reported per batch size: events/s, frames and bytes on the wire,
 * and credits received; per fan-out run: the live peer's events/s and
 * the eviction count. The JSON baselines land in BENCH_remote.json
 * via VARAN_BENCH_JSON.
 */

#include <cstdio>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "benchutil/harness.h"
#include "benchutil/table.h"
#include "common/clock.h"
#include "core/layout.h"
#include "core/tuple_writer.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

using namespace varan;
using namespace varan::bench;

namespace {

constexpr std::uint32_t kRingCapacity = 1024;

struct Node {
    shmem::Region region;
    core::EngineLayout layout;

    explicit Node(std::uint32_t leader_id)
    {
        auto r = shmem::Region::create(32 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, leader_id,
                                            kRingCapacity);
    }
};

struct RunResult {
    double events_per_sec = 0;
    wire::Shipper::Stats ship;
    wire::Receiver::Stats recv;
};

RunResult
runOnce(std::size_t ship_batch, std::uint64_t total_events)
{
    Node leader(0);
    Node remote(core::kNoLeader);

    int sv[2];
    VARAN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);

    wire::Shipper::Options ship_opts;
    ship_opts.ship_batch = ship_batch;
    ship_opts.credit_window = 4096;
    wire::Shipper shipper(&leader.region, &leader.layout, ship_opts);
    VARAN_CHECK(shipper.attachTaps().isOk());

    wire::Receiver::Options recv_opts;
    recv_opts.credit_every = 256;
    wire::Receiver receiver(&remote.region, &remote.layout, recv_opts);

    std::thread adopting([&] {
        VARAN_CHECK(receiver.adopt(sv[1]).isOk());
    });
    VARAN_CHECK(shipper.handshake(sv[0]).isOk());
    adopting.join();
    receiver.start();

    // Remote follower stand-in: drain the re-materialized ring.
    std::atomic<std::uint64_t> drained{0};
    std::thread remote_follower([&] {
        ring::RingBuffer ring = remote.layout.tupleRing(&remote.region, 0);
        ring::Event events[64];
        ring::WaitSpec wait;
        wait.timeout_ns = 50000000; // 50 ms tick
        std::uint64_t seen = 0;
        while (seen < total_events) {
            const std::size_t n = ring.peekBatch(0, events, 64, wait);
            ring.advanceBy(0, n);
            seen += n;
            drained.store(seen, std::memory_order_release);
        }
    });

    shipper.start();
    core::TupleWriter writer(&leader.region, leader.layout, 0);
    const std::uint64_t start_ns = monotonicNs();

    ring::Event batch[256];
    std::uint64_t published = 0;
    while (published < total_events) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(256, total_events - published));
        for (std::size_t i = 0; i < n; ++i) {
            batch[i] = {};
            batch[i].type = ring::EventType::Syscall;
            batch[i].timestamp = published + i + 1;
            batch[i].nr = 39; // getpid
            batch[i].result = 4242;
        }
        published += writer.publish({batch, n}, {});
    }

    remote_follower.join();
    const std::uint64_t elapsed_ns = monotonicNs() - start_ns;
    shipper.finish();
    receiver.finish();
    ::close(sv[0]);
    ::close(sv[1]);

    RunResult result;
    result.events_per_sec =
        elapsed_ns > 0 ? 1e9 * static_cast<double>(total_events) /
                             static_cast<double>(elapsed_ns)
                       : 0;
    result.ship = shipper.stats();
    result.recv = receiver.stats();
    return result;
}

struct FanOutResult {
    double events_per_sec = 0; ///< the live peer's end-to-end rate
    wire::Shipper::Stats ship;
};

/** One shipper fanning out to two receivers; when @p stall_peer_b the
 *  second receiver handshakes and then never serves a frame. */
FanOutResult
runFanOut(std::size_t ship_batch, std::uint64_t total_events,
          bool stall_peer_b)
{
    Node leader(0);
    Node remote_a(core::kNoLeader);
    Node remote_b(core::kNoLeader);

    int sva[2], svb[2];
    VARAN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sva) == 0);
    VARAN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, svb) == 0);

    wire::Shipper::Options ship_opts;
    ship_opts.ship_batch = ship_batch;
    ship_opts.credit_window = 4096;
    wire::Shipper shipper(&leader.region, &leader.layout, ship_opts);
    VARAN_CHECK(shipper.attachTaps().isOk());

    wire::Receiver::Options recv_opts;
    recv_opts.credit_every = 256;
    wire::Receiver receiver_a(&remote_a.region, &remote_a.layout,
                              recv_opts);
    wire::Receiver receiver_b(&remote_b.region, &remote_b.layout,
                              recv_opts);

    std::thread adopt_a([&] {
        VARAN_CHECK(receiver_a.adopt(sva[1]).isOk());
    });
    VARAN_CHECK(shipper.addPeer(sva[0]).isOk());
    adopt_a.join();
    std::thread adopt_b([&] {
        VARAN_CHECK(receiver_b.adopt(svb[1]).isOk());
    });
    VARAN_CHECK(shipper.addPeer(svb[0]).isOk());
    adopt_b.join();

    receiver_a.start();
    if (!stall_peer_b)
        receiver_b.start(); // a stalled peer handshakes, then nothing

    // Follower stand-ins drain the re-materialized rings (node B's
    // only when it is live — a stalled node consumes nothing).
    std::atomic<bool> done{false};
    auto drainNode = [&done](Node *node, std::uint64_t until) {
        ring::RingBuffer ring = node->layout.tupleRing(&node->region, 0);
        ring::Event events[64];
        ring::WaitSpec wait;
        wait.timeout_ns = 50000000; // 50 ms tick
        std::uint64_t seen = 0;
        while (seen < until && !done.load(std::memory_order_acquire)) {
            const std::size_t n = ring.peekBatch(0, events, 64, wait);
            ring.advanceBy(0, n);
            seen += n;
        }
    };
    std::thread remote_follower(
        [&] { drainNode(&remote_a, total_events); });
    std::thread remote_follower_b([&] {
        if (!stall_peer_b)
            drainNode(&remote_b, total_events);
    });

    shipper.start();
    core::TupleWriter writer(&leader.region, leader.layout, 0);
    const std::uint64_t start_ns = monotonicNs();

    ring::Event batch[256];
    std::uint64_t published = 0;
    while (published < total_events) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(256, total_events - published));
        for (std::size_t i = 0; i < n; ++i) {
            batch[i] = {};
            batch[i].type = ring::EventType::Syscall;
            batch[i].timestamp = published + i + 1;
            batch[i].nr = 39; // getpid
            batch[i].result = 4242;
        }
        published += writer.publish({batch, n}, {});
    }

    remote_follower.join();
    const std::uint64_t elapsed_ns = monotonicNs() - start_ns;
    done.store(true, std::memory_order_release);
    remote_follower_b.join();
    shipper.finish();
    receiver_a.finish();
    receiver_b.finish();
    ::close(sva[0]);
    ::close(sva[1]);
    ::close(svb[0]);
    ::close(svb[1]);

    FanOutResult result;
    result.events_per_sec =
        elapsed_ns > 0 ? 1e9 * static_cast<double>(total_events) /
                             static_cast<double>(elapsed_ns)
                       : 0;
    result.ship = shipper.stats();
    return result;
}

} // namespace

int
main()
{
    ignoreSigpipe();
    const std::uint64_t total = scaled(400000, 60000);
    std::printf("Section 5.5 (extension): remote event shipping, %llu "
                "events end to end\n\n",
                static_cast<unsigned long long>(total));

    const std::size_t batches[] = {1, 16, 64};
    RunResult results[3];
    for (int i = 0; i < 3; ++i)
        results[i] = runOnce(batches[i], total);

    Table table({"ship batch", "events/s", "speedup", "frames", "wire MB",
                 "credits"});
    for (int i = 0; i < 3; ++i) {
        double speedup = results[0].events_per_sec > 0
                             ? results[i].events_per_sec /
                                   results[0].events_per_sec
                             : 0;
        table.addRow({std::to_string(batches[i]),
                      fmt(results[i].events_per_sec, "%.0f"),
                      fmt(speedup, "%.2fx"),
                      std::to_string(results[i].ship.frames),
                      fmt(static_cast<double>(results[i].ship.bytes) / 1e6,
                          "%.1f"),
                      std::to_string(results[i].recv.credits_sent)});
    }
    table.print();
    table.writeJson("sec55_remote");

    std::printf("\nExpected shape: per-event shipping pays one frame + "
                "one gather-write + one\npublish per event; batching "
                "amortizes all three (DMON-style relaxed\n"
                "synchronization across the wire).\n");

    // Fan-out: 1 shipper -> 2 receivers, per-peer credit isolation.
    std::printf("\nFan-out (1 shipper -> 2 receivers), %llu events to "
                "the live peer\n\n",
                static_cast<unsigned long long>(total));
    FanOutResult both = runFanOut(16, total, /*stall_peer_b=*/false);
    FanOutResult stalled = runFanOut(16, total, /*stall_peer_b=*/true);

    Table fanout({"peers", "live-peer events/s", "vs both-live", "frames",
                  "evicted"});
    fanout.addRow({"2 live", fmt(both.events_per_sec, "%.0f"), "1.00x",
                   std::to_string(both.ship.frames),
                   std::to_string(both.ship.peers_evicted)});
    double ratio = both.events_per_sec > 0
                       ? stalled.events_per_sec / both.events_per_sec
                       : 0;
    fanout.addRow({"1 live + 1 stalled",
                   fmt(stalled.events_per_sec, "%.0f"),
                   fmt(ratio, "%.2fx"),
                   std::to_string(stalled.ship.frames),
                   std::to_string(stalled.ship.peers_evicted)});
    fanout.print();
    fanout.writeJson("sec55_fanout");

    std::printf("\nExpected shape: the stalled peer is served from the "
                "retransmit buffer until\nit falls past retain_limit and "
                "is evicted; the live peer's throughput stays\nwithin "
                "noise of the both-live run (per-peer credit "
                "isolation).\n");
    return 0;
}
