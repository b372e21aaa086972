/**
 * @file
 * Ablation A (section 3.3.1): the shared ring buffer versus VARAN's
 * abandoned first design — one queue per follower with a central event
 * pump.
 *
 * The paper's argument is about the *central component's* work per
 * event: with the shared ring the producer publishes once (O(1)) and
 * consumers read in place; with per-follower queues a pump must copy
 * every event into every queue (O(N)). This bench measures exactly
 * that central-path cost, single-threaded so the result reflects CPU
 * work rather than scheduling noise on small machines: each "round"
 * moves one event end to end, and the pump's dispatch is the only
 * extra work between the transports.
 */

#include <cstdio>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/table.h"
#include "common/clock.h"
#include "ring/event_pump.h"
#include "ring/ring_buffer.h"
#include "shmem/region.h"

using namespace varan;
using namespace varan::bench;

namespace {

ring::Event
makeEvent(std::uint64_t n)
{
    ring::Event e = {};
    e.timestamp = n;
    e.type = ring::EventType::Syscall;
    return e;
}

double
ringEventsPerSec(int consumers, std::uint64_t events)
{
    auto region = shmem::Region::create(8 << 20);
    shmem::Region r = std::move(region.value());
    shmem::Offset off = r.carve(ring::RingBuffer::bytesRequired(256));
    ring::RingBuffer ring = ring::RingBuffer::initialize(&r, off, 256);
    std::vector<int> ids(consumers);
    for (int i = 0; i < consumers; ++i)
        ids[i] = ring.attachConsumer();

    ring::Event out;
    std::uint64_t t0 = monotonicNs();
    for (std::uint64_t n = 0; n < events; ++n) {
        const ring::Event event = makeEvent(n);
        ring.claim(1, nullptr);
        ring.commit({&event, 1});
        for (int i = 0; i < consumers; ++i)
            ring.advanceBy(ids[i], ring.peekBatch(ids[i], &out, 1));
    }
    return double(events) / (double(monotonicNs() - t0) / 1e9);
}

double
pumpEventsPerSec(int consumers, std::uint64_t events)
{
    auto region = shmem::Region::create(32 << 20);
    shmem::Region r = std::move(region.value());
    auto make_queue = [&] {
        shmem::Offset off = r.carve(ring::SpscQueue::bytesRequired(256));
        return ring::SpscQueue::initialize(&r, off, 256);
    };
    ring::SpscQueue leader = make_queue();
    std::vector<ring::SpscQueue> follower_queues;
    for (int i = 0; i < consumers; ++i)
        follower_queues.push_back(make_queue());
    ring::EventPump pump(leader, follower_queues);

    ring::Event out;
    std::uint64_t t0 = monotonicNs();
    for (std::uint64_t n = 0; n < events; ++n) {
        leader.tryPush(makeEvent(n));
        pump.pumpSome(1); // the central dispatch: one copy per follower
        for (int i = 0; i < consumers; ++i)
            follower_queues[i].tryPop(&out);
    }
    return double(events) / (double(monotonicNs() - t0) / 1e9);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                    : (quickMode() ? 200000 : 2000000);
    std::printf("Ablation A: shared ring buffer vs per-queue event pump "
                "(central-path cost,\n%llu events, single-threaded)\n\n",
                static_cast<unsigned long long>(events));

    Table table({"followers", "ring events/s", "pump events/s",
                 "ring/pump"});
    for (int consumers : {1, 2, 4, 6}) {
        double ring_rate = ringEventsPerSec(consumers, events);
        double pump_rate = pumpEventsPerSec(consumers, events);
        table.addRow({std::to_string(consumers), fmt(ring_rate, "%.0f"),
                      fmt(pump_rate, "%.0f"),
                      fmt(pump_rate > 0 ? ring_rate / pump_rate : 0,
                          "%.2fx")});
        std::fflush(stdout);
    }
    table.print();
    table.writeJson("ablation_ring_vs_pump");
    std::printf("\nExpected shape (section 3.3.1): the pump 'worked well "
                "for a low system call rate,\nbut at higher rates the "
                "event pump quickly became a bottleneck' — the ring's "
                "central\npath is O(1) per event while the pump's is "
                "O(followers), so the ratio should grow\nwith "
                "fan-out.\n");
    return 0;
}
