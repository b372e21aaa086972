/**
 * @file
 * Tests for the event-streaming layer: the 64-byte event, the
 * Disruptor-style ring buffer driven through its claim/commit and
 * peekBatch/advanceBy protocols (SPMC, backpressure, waitlocks, detach),
 * the Lamport clock gate and the legacy event-pump baseline.
 */

#include <atomic>
#include <cstring>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "harness/ring_ops.h"
#include "ring/event.h"
#include "ring/event_pump.h"
#include "ring/lamport.h"
#include "ring/ring_buffer.h"
#include "shmem/region.h"

namespace varan::ring {
namespace {

using shmem::Offset;
using shmem::Region;

Event
makeEvent(std::uint64_t ts, std::uint16_t nr, std::int64_t result)
{
    Event e = {};
    e.timestamp = ts;
    e.type = EventType::Syscall;
    e.nr = nr;
    e.result = result;
    return e;
}

class RingTest : public ::testing::Test
{
  protected:
    void
    init(std::uint32_t capacity)
    {
        auto r = Region::create(4 << 20);
        ASSERT_TRUE(r.ok());
        region_ = std::move(r.value());
        Offset off = region_.carve(RingBuffer::bytesRequired(capacity));
        ring_ = RingBuffer::initialize(&region_, off, capacity);
    }

    Region region_;
    RingBuffer ring_;
};

TEST(EventTest, IsExactlyOneCacheLine)
{
    EXPECT_EQ(sizeof(Event), 64u);
}

TEST(EventTest, FlagHelpers)
{
    Event e = {};
    EXPECT_FALSE(e.hasPayload());
    e.flags = kHasPayload | kFdTransfer;
    EXPECT_TRUE(e.hasPayload());
    EXPECT_TRUE(e.transfersFd());
    EXPECT_FALSE(e.argsSpilled());
}

TEST_F(RingTest, PublishThenTake)
{
    init(8);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    ASSERT_TRUE(publishOne(ring_, makeEvent(1, 42, 7)));
    Event out = {};
    ASSERT_TRUE(takeOne(ring_, id, &out));
    EXPECT_EQ(out.timestamp, 1u);
    EXPECT_EQ(out.nr, 42u);
    EXPECT_EQ(out.result, 7);
    EXPECT_EQ(ring_.lag(id), 0u); // drained
}

TEST_F(RingTest, LateAttachSkipsHistory)
{
    init(8);
    ASSERT_TRUE(publishOne(ring_, makeEvent(1, 1, 0)));
    ASSERT_TRUE(publishOne(ring_, makeEvent(2, 2, 0)));
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    Event out = {};
    EXPECT_EQ(ring_.lag(id), 0u);
    ASSERT_TRUE(publishOne(ring_, makeEvent(3, 3, 0)));
    ASSERT_TRUE(takeOne(ring_, id, &out));
    EXPECT_EQ(out.nr, 3u);
}

TEST_F(RingTest, WrapAroundPreservesOrder)
{
    init(4);
    int id = ring_.attachConsumer();
    Event out = {};
    for (std::uint64_t i = 1; i <= 100; ++i) {
        ASSERT_TRUE(publishOne(ring_, makeEvent(i, 0, 0)));
        ASSERT_TRUE(takeOne(ring_, id, &out));
        EXPECT_EQ(out.timestamp, i);
    }
}

TEST_F(RingTest, ProducerBlocksWhenFullAndTimesOut)
{
    init(4);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(publishOne(ring_, makeEvent(i + 1, 0, 0)));
    // Ring is full; the next claim must observe the deadline.
    WaitSpec w = WaitSpec::withTimeout(30000000); // 30 ms
    w.spin_iterations = 16;
    EXPECT_FALSE(publishOne(ring_, makeEvent(5, 0, 0), w));
    // Consuming one event frees a slot.
    Event out = {};
    ASSERT_TRUE(takeOne(ring_, id, &out));
    EXPECT_TRUE(publishOne(ring_, makeEvent(5, 0, 0), w));
}

TEST_F(RingTest, DetachUnblocksProducer)
{
    init(4);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(publishOne(ring_, makeEvent(i + 1, 0, 0)));

    std::thread detacher([&] {
        sleepNs(20000000); // 20 ms
        ring_.detachConsumer(id);
    });
    // With no active consumer the gate opens and this claim succeeds.
    WaitSpec w = WaitSpec::withTimeout(2000000000ULL); // 2 s guard
    EXPECT_TRUE(publishOne(ring_, makeEvent(5, 0, 0), w));
    detacher.join();
}

TEST_F(RingTest, DetachMidBatchUnblocksBatchProducer)
{
    init(4);
    int keeper = ring_.attachConsumer();
    int quitter = ring_.attachConsumer();
    ASSERT_GE(keeper, 0);
    ASSERT_GE(quitter, 0);

    // Fill the ring so a whole-ring claim must block on the gate.
    Event seed[4];
    for (int i = 0; i < 4; ++i)
        seed[i] = makeEvent(i + 1, 0, 0);
    ASSERT_TRUE(publishRun(ring_, seed));

    // The quitter drains part of its backlog, then detaches mid-batch —
    // the failover invariant (section 5.1): a departing consumer must
    // stop gating the producer the moment it detaches.
    std::thread failover([&] {
        sleepNs(20000000); // 20 ms: let the producer block first
        Event out[2];
        ASSERT_EQ(takeRun(ring_, quitter, out, 2), 2u);
        ring_.detachConsumer(quitter);
        // The keeper drains everything so both runs can land.
        Event drain[8];
        WaitSpec w = WaitSpec::withTimeout(5000000000ULL);
        std::size_t got = 0;
        while (got < 12)
            got += takeRun(ring_, keeper, drain, 8, w);
    });

    WaitSpec w = WaitSpec::withTimeout(5000000000ULL); // 5 s guard
    Event batch[8];
    for (int i = 0; i < 8; ++i)
        batch[i] = makeEvent(5 + i, 0, 0);
    EXPECT_TRUE(publishRun(ring_, {batch, 4}, w));
    EXPECT_TRUE(publishRun(ring_, {batch + 4, 4}, w));
    failover.join();
}

TEST_F(RingTest, CrashedConsumerProcessDoesNotGateBatchProducer)
{
    init(4);
    int keeper = ring_.attachConsumer();
    int crasher = ring_.attachConsumer();
    ASSERT_GE(keeper, 0);
    ASSERT_GE(crasher, 0);

    Event seed[4];
    for (int i = 0; i < 4; ++i)
        seed[i] = makeEvent(i + 1, 0, 0);
    ASSERT_TRUE(publishRun(ring_, seed));

    // The "crashing follower" consumes part of its batch and dies
    // without detaching, exactly like a variant crashing mid-replay.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        Event out[2];
        if (takeRun(ring_, crasher, out, 2) != 2)
            _exit(1);
        _exit(0); // no detach: the mapping just vanishes
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // The live consumer fully drains; only the dead follower's stale
    // cursor (stuck at 2) still gates the ring: a run of 2 fits, a
    // further one times out.
    Event out[4];
    ASSERT_EQ(takeRun(ring_, keeper, out, 4), 4u);
    WaitSpec short_wait = WaitSpec::withTimeout(30000000); // 30 ms
    short_wait.spin_iterations = 16;
    Event more[4];
    for (int i = 0; i < 4; ++i)
        more[i] = makeEvent(5 + i, 0, 0);
    EXPECT_TRUE(publishRun(ring_, {more, 2}, short_wait));
    EXPECT_FALSE(publishRun(ring_, {more + 2, 2}, short_wait));

    // The coordinator reaps the crash and deactivates the slot
    // (transparent failover, section 5.1): the rest of the batch now
    // completes gated on the live consumer alone.
    ring_.detachConsumer(crasher);
    WaitSpec w = WaitSpec::withTimeout(5000000000ULL);
    EXPECT_TRUE(publishRun(ring_, {more + 2, 2}, w));
    ASSERT_EQ(takeRun(ring_, keeper, out, 4), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].timestamp, static_cast<std::uint64_t>(5 + i));
}

TEST_F(RingTest, EachConsumerSeesEveryEvent)
{
    init(8);
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kEvents = 5000;
    int ids[kConsumers];
    for (int i = 0; i < kConsumers; ++i) {
        ids[i] = ring_.attachConsumer();
        ASSERT_GE(ids[i], 0);
    }

    std::vector<std::thread> consumers;
    std::vector<std::uint64_t> sums(kConsumers, 0);
    for (int i = 0; i < kConsumers; ++i) {
        consumers.emplace_back([&, i] {
            Event out = {};
            WaitSpec w = WaitSpec::withTimeout(10000000000ULL);
            w.spin_iterations = 64;
            for (std::uint64_t n = 1; n <= kEvents; ++n) {
                ASSERT_TRUE(takeOne(ring_, ids[i], &out, w));
                ASSERT_EQ(out.timestamp, n); // strict FIFO per consumer
                sums[i] += out.result;
            }
        });
    }

    std::uint64_t expect_sum = 0;
    WaitSpec pw = WaitSpec::withTimeout(10000000000ULL);
    for (std::uint64_t n = 1; n <= kEvents; ++n) {
        ASSERT_TRUE(publishOne(ring_, makeEvent(n, 0, n % 97), pw));
        expect_sum += n % 97;
    }
    for (auto &t : consumers)
        t.join();
    for (int i = 0; i < kConsumers; ++i)
        EXPECT_EQ(sums[i], expect_sum);
}

/** Every field of event @p n is a function of n, so a slot recycled
 *  under a reader (a gating bug) shows up as a content mismatch. */
Event
stampedEvent(std::uint64_t n)
{
    Event e = makeEvent(n, static_cast<std::uint16_t>(n & 0x3ff),
                        static_cast<std::int64_t>(n * 31));
    for (unsigned i = 0; i < kInlineArgs; ++i)
        e.args[i] = n ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    return e;
}

bool
isStamped(const Event &e, std::uint64_t n)
{
    const Event want = stampedEvent(n);
    return std::memcmp(&e, &want, sizeof(Event)) == 0;
}

TEST_F(RingTest, FutexOnlyStressKeepsOrderAcrossReattach)
{
    // Capacity 4 and no spinning: nearly every publish and consume goes
    // through a waitlock, so a lost wake costs a 1 ms futex tick and
    // 200k events would blow far past the time bound below.
    init(4);
    constexpr std::uint64_t kEvents = 200000;
    WaitSpec wait;
    wait.spin_iterations = 0;
    wait.timeout_ns = 20000000000ULL;

    const int steady = ring_.attachConsumer();
    const int rejoin = ring_.attachConsumer();
    ASSERT_GE(steady, 0);
    ASSERT_GE(rejoin, 0);
    const std::uint64_t start = monotonicNs();

    std::atomic<int> failures{0};
    std::thread steady_thread([&] {
        Event out = {};
        for (std::uint64_t n = 1; n <= kEvents; ++n) {
            if (!takeOne(ring_, steady, &out, wait) || !isStamped(out, n)) {
                failures.fetch_add(1);
                return;
            }
        }
    });
    std::atomic<bool> reattached{false};
    std::uint64_t rejoined_at = 0;
    std::thread rejoin_thread([&] {
        Event out = {};
        for (std::uint64_t n = 1; n <= kEvents / 2; ++n) {
            if (!takeOne(ring_, rejoin, &out, wait) || !isStamped(out, n)) {
                failures.fetch_add(1);
                return;
            }
        }
        // Leave and come back at the stream tail: from there on the
        // stream must again be gap-free and in order.
        ring_.detachConsumer(rejoin);
        const bool attached = ring_.attachConsumerAt(rejoin);
        reattached.store(true, std::memory_order_release);
        if (!attached || !takeOne(ring_, rejoin, &out, wait)) {
            failures.fetch_add(1);
            return;
        }
        rejoined_at = out.timestamp;
        for (std::uint64_t n = rejoined_at;; ++n) {
            if (!isStamped(out, n)) {
                failures.fetch_add(1);
                return;
            }
            if (n == kEvents)
                break;
            if (!takeOne(ring_, rejoin, &out, wait)) {
                failures.fetch_add(1);
                return;
            }
        }
    });

    for (std::uint64_t n = 1; n <= kEvents; ++n) {
        // Leave the rejoining consumer a tail to join.
        if (n == kEvents * 3 / 4) {
            while (!reattached.load(std::memory_order_acquire) &&
                   failures.load() == 0)
                std::this_thread::yield();
        }
        if (!publishOne(ring_, stampedEvent(n), wait)) {
            ADD_FAILURE() << "publish " << n << " timed out";
            break;
        }
    }
    steady_thread.join();
    rejoin_thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(rejoined_at, kEvents / 2);
    EXPECT_LE(rejoined_at, kEvents * 3 / 4);
    EXPECT_LT(monotonicNs() - start, 20000000000ULL)
        << "lost wakes: waiters slept through their futex ticks";
}

TEST_F(RingTest, LagTracksDistance)
{
    init(16);
    int id = ring_.attachConsumer();
    EXPECT_EQ(ring_.lag(id), 0u);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(publishOne(ring_, makeEvent(i + 1, 0, 0)));
    EXPECT_EQ(ring_.lag(id), 6u);
    Event out = {};
    ASSERT_TRUE(takeOne(ring_, id, &out));
    ASSERT_TRUE(takeOne(ring_, id, &out));
    EXPECT_EQ(ring_.lag(id), 4u);
}

TEST_F(RingTest, AttachConsumerAtFixedSlot)
{
    init(8);
    ASSERT_TRUE(ring_.attachConsumerAt(5));
    EXPECT_FALSE(ring_.attachConsumerAt(5)); // already taken
    EXPECT_TRUE(ring_.consumerActive(5));
    ring_.detachConsumer(5);
    EXPECT_FALSE(ring_.consumerActive(5));
    EXPECT_TRUE(ring_.attachConsumerAt(5)); // slot reusable
}

TEST_F(RingTest, AllSlotsExhaustReturnsMinusOne)
{
    init(8);
    for (std::uint32_t i = 0; i < kMaxConsumers; ++i)
        EXPECT_GE(ring_.attachConsumer(), 0);
    EXPECT_EQ(ring_.attachConsumer(), -1);
}

TEST_F(RingTest, FutexPathDeliversUnderSlowProduction)
{
    init(8);
    int id = ring_.attachConsumer();
    std::thread producer([&] {
        for (int i = 0; i < 5; ++i) {
            sleepNs(5000000); // 5 ms gaps force the consumer to sleep
            publishOne(ring_, makeEvent(i + 1, 0, 0));
        }
    });
    Event out = {};
    WaitSpec w = WaitSpec::withTimeout(5000000000ULL);
    w.spin_iterations = 8; // hit the futex path quickly
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(takeOne(ring_, id, &out, w));
        EXPECT_EQ(out.timestamp, static_cast<std::uint64_t>(i + 1));
    }
    producer.join();
}

TEST_F(RingTest, AwaitAnyDataWakesOnAnyRing)
{
    // One consumer holding a slot on three rings sleeps on all of them
    // at once: silence times out, a publish on the last ring wakes it,
    // and every announcement is withdrawn afterwards.
    init(8);
    RingBuffer rings[3] = {ring_};
    for (int r = 1; r < 3; ++r) {
        Offset off = region_.carve(RingBuffer::bytesRequired(8));
        rings[r] = RingBuffer::initialize(&region_, off, 8);
    }
    int slots[3];
    for (int r = 0; r < 3; ++r)
        slots[r] = rings[r].attachConsumer();

    std::uint64_t t0 = monotonicNs();
    EXPECT_FALSE(RingBuffer::awaitAnyData(rings, slots, 20000000)); // 20 ms
    EXPECT_GE(monotonicNs() - t0, 15000000ULL);

    std::thread producer([&] {
        sleepNs(5000000); // the consumer is asleep by now
        publishOne(rings[2], makeEvent(1, 0, 0));
    });
    t0 = monotonicNs();
    EXPECT_TRUE(RingBuffer::awaitAnyData(rings, slots, 5000000000ULL));
    EXPECT_LT(monotonicNs() - t0, 1000000000ULL);
    producer.join();
    for (const RingBuffer &ring : rings)
        EXPECT_EQ(ring.consumersWaiting(), 0u);

    // Data already there: no sleep at all.
    EXPECT_TRUE(RingBuffer::awaitAnyData(rings, slots, 0));
}

TEST_F(RingTest, PeekTimesOutOnSilence)
{
    init(8);
    int id = ring_.attachConsumer();
    Event out[8];
    WaitSpec w = WaitSpec::withTimeout(20000000); // 20 ms
    w.spin_iterations = 8;
    std::uint64_t t0 = monotonicNs();
    EXPECT_EQ(ring_.peekBatch(id, out, 8, w), 0u);
    EXPECT_GE(monotonicNs() - t0, 15000000ULL);
}

TEST_F(RingTest, CrossProcessStreamIsLossless)
{
    init(64);
    constexpr std::uint64_t kEvents = 20000;
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child is the follower: consume and verify ordering.
        Event out = {};
        WaitSpec w = WaitSpec::withTimeout(20000000000ULL);
        for (std::uint64_t n = 1; n <= kEvents; ++n) {
            if (!takeOne(ring_, id, &out, w))
                _exit(2);
            if (out.timestamp != n || out.result != int64_t(n * 3))
                _exit(3);
        }
        _exit(0);
    }
    WaitSpec pw = WaitSpec::withTimeout(20000000000ULL);
    for (std::uint64_t n = 1; n <= kEvents; ++n)
        ASSERT_TRUE(publishOne(ring_, makeEvent(n, 7, int64_t(n * 3)), pw));
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// --- parameterized sweep: capacity x consumer count (property-style) ---

class RingSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(RingSweepTest, StreamIntegrityUnderLoad)
{
    const std::uint32_t capacity = std::get<0>(GetParam());
    const int consumers = std::get<1>(GetParam());
    constexpr std::uint64_t kEvents = 3000;

    auto r = Region::create(4 << 20);
    ASSERT_TRUE(r.ok());
    Region region = std::move(r.value());
    Offset off = region.carve(RingBuffer::bytesRequired(capacity));
    RingBuffer ring = RingBuffer::initialize(&region, off, capacity);

    std::vector<int> ids(consumers);
    for (int i = 0; i < consumers; ++i) {
        ids[i] = ring.attachConsumer();
        ASSERT_GE(ids[i], 0);
    }
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int i = 0; i < consumers; ++i) {
        threads.emplace_back([&, i] {
            Event out = {};
            WaitSpec w = WaitSpec::withTimeout(20000000000ULL);
            w.spin_iterations = 128;
            for (std::uint64_t n = 1; n <= kEvents; ++n) {
                if (!takeOne(ring, ids[i], &out, w) || out.timestamp != n) {
                    failures.fetch_add(1);
                    return;
                }
            }
        });
    }
    WaitSpec pw = WaitSpec::withTimeout(20000000000ULL);
    for (std::uint64_t n = 1; n <= kEvents; ++n)
        ASSERT_TRUE(publishOne(ring, makeEvent(n, 0, 0), pw));
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityByConsumers, RingSweepTest,
    ::testing::Combine(::testing::Values(1u, 4u, 16u, 256u),
                       ::testing::Values(1, 2, 4)));

// --- Lamport clock ---

class LamportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto r = Region::create(1 << 16);
        ASSERT_TRUE(r.ok());
        region_ = std::move(r.value());
        Offset off = region_.carve(LamportClock::bytesRequired());
        clock_ = LamportClock::initialize(&region_, off);
    }

    Region region_;
    LamportClock clock_;
};

TEST_F(LamportTest, TickIsMonotonicConsecutive)
{
    EXPECT_EQ(clock_.current(), 0u);
    EXPECT_EQ(clock_.tick(), 1u);
    EXPECT_EQ(clock_.tick(), 2u);
    EXPECT_EQ(clock_.current(), 2u);
}

TEST_F(LamportTest, TicksAreUniqueAcrossThreads)
{
    constexpr int kThreads = 4;
    constexpr int kTicks = 5000;
    std::vector<std::vector<std::uint64_t>> stamps(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            stamps[t].reserve(kTicks);
            for (int i = 0; i < kTicks; ++i)
                stamps[t].push_back(clock_.tick());
        });
    }
    for (auto &th : threads)
        th.join();
    std::vector<std::uint64_t> all;
    for (auto &v : stamps)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(all[i], i + 1); // dense and unique
}

TEST_F(LamportTest, AwaitTurnEnforcesOrder)
{
    std::vector<int> order;
    std::mutex m;
    // Three "follower threads" receive shuffled timestamps but must
    // process them in timestamp order.
    std::vector<std::thread> threads;
    for (std::uint64_t ts : {3u, 1u, 2u}) {
        threads.emplace_back([&, ts] {
            WaitSpec w = WaitSpec::withTimeout(5000000000ULL);
            w.spin_iterations = 32;
            ASSERT_TRUE(clock_.awaitTurn(ts, w));
            {
                std::lock_guard<std::mutex> g(m);
                order.push_back(static_cast<int>(ts));
            }
            clock_.advanceTo(ts);
        });
    }
    for (auto &th : threads)
        th.join();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
}

TEST_F(LamportTest, AwaitTurnTimesOutWhenBlocked)
{
    WaitSpec w = WaitSpec::withTimeout(20000000); // 20 ms
    w.spin_iterations = 8;
    EXPECT_FALSE(clock_.awaitTurn(5, w)); // turns 1-4 never happen
}

// --- SPSC queue + event pump (legacy design, ablation baseline) ---

class PumpTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto r = Region::create(8 << 20);
        ASSERT_TRUE(r.ok());
        region_ = std::move(r.value());
    }

    SpscQueue
    makeQueue(std::uint32_t capacity)
    {
        Offset off = region_.carve(SpscQueue::bytesRequired(capacity));
        return SpscQueue::initialize(&region_, off, capacity);
    }

    Region region_;
};

TEST_F(PumpTest, SpscFifoRoundTrip)
{
    SpscQueue q = makeQueue(8);
    ASSERT_TRUE(q.tryPush(makeEvent(1, 11, 0)));
    ASSERT_TRUE(q.tryPush(makeEvent(2, 22, 0)));
    Event out = {};
    ASSERT_TRUE(q.tryPop(&out));
    EXPECT_EQ(out.nr, 11u);
    ASSERT_TRUE(q.tryPop(&out));
    EXPECT_EQ(out.nr, 22u);
    EXPECT_FALSE(q.tryPop(&out));
}

TEST_F(PumpTest, SpscFullRejectsPush)
{
    SpscQueue q = makeQueue(2);
    EXPECT_TRUE(q.tryPush(makeEvent(1, 0, 0)));
    EXPECT_TRUE(q.tryPush(makeEvent(2, 0, 0)));
    EXPECT_FALSE(q.tryPush(makeEvent(3, 0, 0)));
    EXPECT_EQ(q.size(), 2u);
}

TEST_F(PumpTest, PumpReplicatesToAllFollowers)
{
    SpscQueue leader = makeQueue(64);
    std::vector<SpscQueue> followers = {makeQueue(64), makeQueue(64),
                                        makeQueue(64)};
    EventPump pump(leader, followers);

    for (std::uint64_t n = 1; n <= 32; ++n)
        ASSERT_TRUE(leader.tryPush(makeEvent(n, 0, 0)));
    EXPECT_EQ(pump.pumpSome(1000), 32u);

    for (auto &f : followers) {
        Event out = {};
        for (std::uint64_t n = 1; n <= 32; ++n) {
            ASSERT_TRUE(f.tryPop(&out));
            EXPECT_EQ(out.timestamp, n);
        }
        EXPECT_FALSE(f.tryPop(&out));
    }
}

TEST_F(PumpTest, RunStopsOnRequestAndDrains)
{
    SpscQueue leader = makeQueue(1024);
    std::vector<SpscQueue> followers = {makeQueue(1024)};
    EventPump pump(leader, followers);

    std::thread runner([&] { pump.run(); });
    for (std::uint64_t n = 1; n <= 500; ++n)
        ASSERT_TRUE(leader.push(makeEvent(n, 0, 0),
                                WaitSpec::withTimeout(5000000000ULL)));
    sleepNs(50000000); // let it pump
    pump.stop();
    runner.join();

    Event out = {};
    std::uint64_t got = 0;
    while (followers[0].tryPop(&out))
        ++got;
    EXPECT_EQ(got, 500u);
}

} // namespace
} // namespace varan::ring
