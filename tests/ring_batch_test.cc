/**
 * @file
 * Tests for the ring's run-at-a-time protocols: claim() reserves a
 * contiguous sequence range and commit() publishes it with one
 * synchronization round; peekBatch() reads a run that stays claimed
 * until advanceBy() releases it with a single cursor advance. Also
 * covers the SPSC queue batch operations and the batched event pump.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "harness/ring_ops.h"
#include "ring/event.h"
#include "ring/event_pump.h"
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

std::vector<Event>
makeRun(std::uint64_t first_ts, std::size_t count)
{
    std::vector<Event> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        events.push_back(makeEvent(first_ts + i, 0,
                                   static_cast<std::int64_t>(first_ts + i)));
    return events;
}

class RingBatchTest : public ::testing::Test
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

TEST_F(RingBatchTest, BatchRoundTrip)
{
    init(16);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);

    EXPECT_TRUE(publishRun(ring_, makeRun(1, 10)));
    EXPECT_EQ(ring_.headSeq(), 10u);

    Event out[16];
    ASSERT_EQ(takeRun(ring_, id, out, 16), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(out[i].timestamp, i + 1);
        EXPECT_EQ(out[i].result, static_cast<std::int64_t>(i + 1));
    }
    EXPECT_EQ(ring_.lag(id), 0u); // drained
}

TEST_F(RingBatchTest, PeekBatchHonoursMax)
{
    init(16);
    int id = ring_.attachConsumer();
    ASSERT_TRUE(publishRun(ring_, makeRun(1, 12)));

    Event out[16];
    ASSERT_EQ(takeRun(ring_, id, out, 5), 5u);
    EXPECT_EQ(out[4].timestamp, 5u);
    EXPECT_EQ(ring_.lag(id), 7u);
    ASSERT_EQ(takeRun(ring_, id, out, 16), 7u);
    EXPECT_EQ(out[0].timestamp, 6u);
    EXPECT_EQ(out[6].timestamp, 12u);
}

TEST_F(RingBatchTest, PartialBatchWrapAroundAtCapacityBoundary)
{
    init(8);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);

    // Advance the cursor so the next batch straddles the wrap point:
    // 5 consumed of 5 published leaves head at 5; a batch of 8 then
    // occupies slots 5,6,7,0,1,2,3,4.
    ASSERT_TRUE(publishRun(ring_, makeRun(1, 5)));
    Event out[8];
    ASSERT_EQ(takeRun(ring_, id, out, 8), 5u);

    ASSERT_TRUE(publishRun(ring_, makeRun(6, 8)));
    ASSERT_EQ(takeRun(ring_, id, out, 8), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i].timestamp, 6 + i);
}

TEST_F(RingBatchTest, BatchAndSingleEventInterleave)
{
    init(16);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);

    ASSERT_TRUE(publishOne(ring_, makeEvent(1, 0, 0)));
    ASSERT_TRUE(publishRun(ring_, makeRun(2, 4)));
    ASSERT_TRUE(publishOne(ring_, makeEvent(6, 0, 0)));
    ASSERT_TRUE(publishRun(ring_, makeRun(7, 3)));

    // Mixed draining: a single event, then a run, then singles.
    Event out[16];
    ASSERT_TRUE(takeOne(ring_, id, &out[0]));
    EXPECT_EQ(out[0].timestamp, 1u);
    ASSERT_EQ(takeRun(ring_, id, out, 5), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(out[i].timestamp, 2 + i);
    for (std::uint64_t ts = 7; ts <= 9; ++ts) {
        ASSERT_TRUE(takeOne(ring_, id, &out[0],
                            WaitSpec::withTimeout(1000000000ULL)));
        EXPECT_EQ(out[0].timestamp, ts);
    }
}

TEST_F(RingBatchTest, EveryConsumerSeesEveryBatchedEvent)
{
    init(16);
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kEvents = 6000;
    int ids[kConsumers];
    for (int i = 0; i < kConsumers; ++i) {
        ids[i] = ring_.attachConsumer();
        ASSERT_GE(ids[i], 0);
    }

    std::vector<std::thread> consumers;
    std::atomic<int> failures{0};
    for (int i = 0; i < kConsumers; ++i) {
        consumers.emplace_back([&, i] {
            Event out[16];
            WaitSpec w = WaitSpec::withTimeout(20000000000ULL);
            w.spin_iterations = 128;
            std::uint64_t next = 1;
            while (next <= kEvents) {
                std::size_t n = takeRun(ring_, ids[i], out, 16, w);
                if (n == 0) {
                    failures.fetch_add(1);
                    return;
                }
                for (std::size_t k = 0; k < n; ++k, ++next) {
                    if (out[k].timestamp != next) {
                        failures.fetch_add(1);
                        return;
                    }
                }
            }
        });
    }

    WaitSpec pw = WaitSpec::withTimeout(20000000000ULL);
    std::uint64_t published = 0;
    // Vary the batch size so claims land on every alignment.
    for (std::size_t b = 1; published < kEvents; b = (b % 13) + 1) {
        std::size_t n = std::min<std::uint64_t>(b, kEvents - published);
        ASSERT_TRUE(publishRun(ring_, makeRun(published + 1, n), pw));
        published += n;
    }
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(failures.load(), 0);
}

// --- two-phase claim/commit producer API ---

TEST_F(RingBatchTest, ClaimCommitRoundTrip)
{
    init(16);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);

    std::uint64_t seq = 123;
    ASSERT_TRUE(ring_.claim(4, &seq));
    EXPECT_EQ(seq, 0u);
    // Nothing is visible until commit.
    EXPECT_EQ(ring_.lag(id), 0u);

    std::vector<Event> in = makeRun(1, 4);
    ring_.commit(in);
    EXPECT_EQ(ring_.headSeq(), 4u);
    Event out[16];
    ASSERT_EQ(takeRun(ring_, id, out, 16), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].timestamp, i + 1);
}

TEST_F(RingBatchTest, ClaimWaitsForContiguousRun)
{
    init(4);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    ASSERT_TRUE(publishRun(ring_, makeRun(1, 3)));

    // Only one slot free: a claim for two must time out...
    WaitSpec w = WaitSpec::withTimeout(20000000); // 20 ms
    w.spin_iterations = 16;
    std::uint64_t seq = 0;
    EXPECT_FALSE(ring_.claim(2, &seq, w));

    // ...and succeed once the consumer released enough slots.
    Event out[4];
    ASSERT_EQ(takeRun(ring_, id, out, 2), 2u);
    ASSERT_TRUE(ring_.claim(2, &seq, w));
    EXPECT_EQ(seq, 3u);
    ring_.commit(makeRun(4, 2));
    ASSERT_EQ(takeRun(ring_, id, out, 4), 3u);
    EXPECT_EQ(out[2].timestamp, 5u);
}

// --- non-advancing batched reads ---

TEST_F(RingBatchTest, PeekBatchDoesNotAdvance)
{
    init(16);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    ASSERT_TRUE(publishRun(ring_, makeRun(1, 5)));

    Event out[16];
    ASSERT_EQ(ring_.peekBatch(id, out, 16), 5u);
    EXPECT_EQ(out[4].timestamp, 5u);
    // The run is still claimed: lag unchanged, a second peek re-reads.
    EXPECT_EQ(ring_.lag(id), 5u);
    ASSERT_EQ(ring_.peekBatch(id, out, 16), 5u);
    EXPECT_EQ(out[0].timestamp, 1u);

    ring_.advanceBy(id, 3);
    EXPECT_EQ(ring_.lag(id), 2u);
    ASSERT_EQ(ring_.peekBatch(id, out, 16), 2u);
    EXPECT_EQ(out[0].timestamp, 4u);
    ring_.advanceBy(id, 2);
    EXPECT_EQ(ring_.lag(id), 0u);
}

TEST_F(RingBatchTest, PeekedRunKeepsSlotsClaimedAgainstProducer)
{
    // The payload-lifetime property: while a peeked run is unadvanced,
    // the producer cannot recycle those slots — it blocks on the full
    // ring instead of overwriting what the consumer still reads.
    init(4);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    ASSERT_TRUE(publishRun(ring_, makeRun(1, 4)));

    Event out[4];
    ASSERT_EQ(ring_.peekBatch(id, out, 4), 4u);
    WaitSpec w = WaitSpec::withTimeout(20000000); // 20 ms
    w.spin_iterations = 16;
    EXPECT_FALSE(publishRun(ring_, makeRun(5, 1), w));

    // Advancing the peeked run opens the gate again.
    ring_.advanceBy(id, 4);
    EXPECT_TRUE(publishRun(ring_, makeRun(5, 1), w));
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].timestamp, i + 1); // copies survived
}

TEST_F(RingBatchTest, AdvanceByWakesBlockedProducer)
{
    init(4);
    int id = ring_.attachConsumer();
    ASSERT_GE(id, 0);
    ASSERT_TRUE(publishRun(ring_, makeRun(1, 4)));

    std::thread producer([&] {
        WaitSpec w = WaitSpec::withTimeout(10000000000ULL);
        w.spin_iterations = 0; // force the futex path
        EXPECT_TRUE(publishRun(ring_, makeRun(5, 2), w));
    });

    Event out[4];
    ASSERT_EQ(ring_.peekBatch(id, out, 4), 4u);
    sleepNs(5000000); // let the producer reach the waitlock
    ring_.advanceBy(id, 4);
    producer.join();
    ASSERT_EQ(ring_.peekBatch(id, out, 4), 2u);
    EXPECT_EQ(out[0].timestamp, 5u);
    ring_.advanceBy(id, 2);
}

// --- SPSC queue + pump batch ops ---

class SpscBatchTest : public ::testing::Test
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

TEST_F(SpscBatchTest, TryPushBatchStopsAtCapacity)
{
    SpscQueue q = makeQueue(8);
    std::vector<Event> in = makeRun(1, 12);
    EXPECT_EQ(q.tryPushBatch(in), 8u);
    EXPECT_EQ(q.size(), 8u);
    EXPECT_EQ(q.tryPushBatch({in.data() + 8, 4}), 0u);

    Event out[12];
    EXPECT_EQ(q.tryPopBatch(out, 12), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i].timestamp, i + 1);
}

TEST_F(SpscBatchTest, BatchWrapAround)
{
    SpscQueue q = makeQueue(8);
    Event out[8];
    ASSERT_EQ(q.tryPushBatch(makeRun(1, 6)), 6u);
    ASSERT_EQ(q.tryPopBatch(out, 6), 6u);
    // Next batch wraps across the slot-array boundary.
    ASSERT_EQ(q.tryPushBatch(makeRun(7, 8)), 8u);
    ASSERT_EQ(q.tryPopBatch(out, 8), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i].timestamp, 7 + i);
}

TEST_F(SpscBatchTest, PumpMovesBatchesToAllFollowers)
{
    SpscQueue leader = makeQueue(256);
    std::vector<SpscQueue> followers = {makeQueue(256), makeQueue(256)};
    EventPump pump(leader, followers);

    ASSERT_EQ(leader.tryPushBatch(makeRun(1, 200)), 200u);
    EXPECT_EQ(pump.pumpSome(1000), 200u);

    for (auto &f : followers) {
        Event out[64];
        std::uint64_t next = 1;
        std::size_t n;
        while ((n = f.tryPopBatch(out, 64)) > 0) {
            for (std::size_t i = 0; i < n; ++i, ++next)
                ASSERT_EQ(out[i].timestamp, next);
        }
        EXPECT_EQ(next, 201u);
    }
}

} // namespace
} // namespace varan::ring
