#include "core/layout.h"

#include <new>

#include "common/clock.h"

namespace varan::core {

EngineLayout
EngineLayout::create(shmem::Region *region, std::uint32_t num_variants,
                     std::uint32_t leader_id, std::uint32_t ring_capacity)
{
    VARAN_CHECK(num_variants >= 1 && num_variants <= kMaxVariants);
    VARAN_CHECK(leader_id < num_variants || leader_id == kNoLeader);
    VARAN_CHECK(ring_capacity > 0 &&
                (ring_capacity & (ring_capacity - 1)) == 0);

    EngineLayout layout;
    layout.control = region->carve(sizeof(ControlBlock));
    auto *cb = new (region->bytesAt(layout.control, sizeof(ControlBlock)))
        ControlBlock();
    cb->num_variants = num_variants;
    // Tracing defaults on: the flight recorder and histograms are
    // sampled/batch-granular and cost <5% on the hot paths (see
    // bench/sec57_trace.cc); operators flip trace.enabled live to
    // shed even that.
    cb->trace.enabled.store(1, std::memory_order_relaxed);
    cb->ring_capacity = ring_capacity;
    cb->leader_id.store(leader_id, std::memory_order_relaxed);
    cb->epoch.store(0, std::memory_order_relaxed);
    // Generation 0 means "no stream yet": an external-leader engine
    // adopts the shipping node's generation at the wire handshake.
    cb->stream_generation.store(leader_id == kNoLeader ? 0 : 1,
                                std::memory_order_relaxed);
    cb->promotions.store(0, std::memory_order_relaxed);
    cb->num_tuples.store(1, std::memory_order_relaxed); // tuple 0 = main
    cb->shutdown.store(0, std::memory_order_relaxed);
    std::uint32_t mask = 0;
    for (std::uint32_t v = 0; v < num_variants; ++v)
        mask |= 1u << v;
    cb->live_mask.store(mask, std::memory_order_relaxed);
    // Knobs read sane before anyone seeds explicit values; the seeded
    // mask stays clear so the first seeder (coordinator or a promoted
    // component) still wins.
    initTuningDefaults(cb->tuning);

    for (std::uint32_t v = 0; v < kMaxVariants; ++v) {
        cb->variants[v].state.store(
            static_cast<std::uint32_t>(v < num_variants
                                           ? VariantState::Running
                                           : VariantState::Empty),
            std::memory_order_relaxed);
        cb->variants[v].exit_status.store(0, std::memory_order_relaxed);
        cb->variants[v].pid.store(0, std::memory_order_relaxed);
        cb->variants[v].syscalls.store(0, std::memory_order_relaxed);
        cb->variants[v].role.store(
            static_cast<std::uint32_t>(VariantRole::LeaderCandidate),
            std::memory_order_relaxed);
        cb->variants[v].restarts.store(0, std::memory_order_relaxed);
        ring::LamportClock::initialize(
            region, region->offsetOf(&cb->clocks[v]));
    }

    // Rings and payload shadows for every possible tuple, with follower
    // cursors pre-attached so no start-up race can lose events.
    for (std::uint32_t t = 0; t < kMaxTuples; ++t) {
        shmem::Offset ring_off =
            region->carve(ring::RingBuffer::bytesRequired(ring_capacity));
        ring::RingBuffer ring =
            ring::RingBuffer::initialize(region, ring_off, ring_capacity);
        shmem::Offset shadow_off =
            region->carve(sizeof(std::uint64_t) * ring_capacity);
        auto *shadow = static_cast<std::uint64_t *>(
            region->bytesAt(shadow_off,
                            sizeof(std::uint64_t) * ring_capacity));
        for (std::uint32_t i = 0; i < ring_capacity; ++i)
            shadow[i] = 0;
        cb->tuples[t].ring = ring_off;
        cb->tuples[t].shadow = shadow_off;
        cb->tuples[t].active.store(t == 0 ? 1 : 0,
                                   std::memory_order_relaxed);
        for (std::uint32_t v = 0; v < num_variants; ++v) {
            if (v == leader_id)
                continue;
            VARAN_CHECK(ring.attachConsumerAt(static_cast<int>(v)));
        }
    }

    // Everything left belongs to the payload pool, split into one arena
    // per tuple plus the global fallback.
    layout.pool_header = region->carve(sizeof(shmem::ShardedPoolHeader));
    std::size_t pool_bytes = 0;
    shmem::Offset pool_begin = region->carveRemainder(&pool_bytes);
    shmem::ShardedPool::initialize(region, layout.pool_header, pool_begin,
                                   pool_begin + pool_bytes, kMaxTuples);

    // Publish the attach anchors last: an out-of-process inspector
    // that observes the magic can trust everything carved above.
    cb->pool_header_off = layout.pool_header;
    cb->block_size = sizeof(ControlBlock);
    cb->magic.store(kControlMagic, std::memory_order_release);
    return layout;
}

Result<EngineLayout>
EngineLayout::attach(const shmem::Region *region)
{
    // create() carves the ControlBlock first, so it always sits at the
    // first carve offset (the cache line after the reserved null page
    // of offset 0).
    if (!region->valid() ||
        region->size() < kCacheLineSize + sizeof(ControlBlock)) {
        return Errno{EINVAL};
    }
    EngineLayout layout;
    layout.control = kCacheLineSize;
    const ControlBlock *cb = layout.controlBlock(region);
    if (cb->magic.load(std::memory_order_acquire) != kControlMagic ||
        cb->block_size != sizeof(ControlBlock)) {
        return Errno{EINVAL};
    }
    if (cb->pool_header_off == 0 || cb->pool_header_off >= region->size())
        return Errno{EINVAL};
    layout.pool_header = cb->pool_header_off;
    return layout;
}

std::uint32_t
lowestCandidate(const ControlBlock &cb, std::uint32_t live)
{
    for (std::uint32_t v = 0; v < cb.num_variants; ++v) {
        if ((live & (1u << v)) &&
            cb.variants[v].role.load(std::memory_order_acquire) ==
                static_cast<std::uint32_t>(VariantRole::LeaderCandidate)) {
            return v;
        }
    }
    return kNoLeader;
}

Election
elect(ControlBlock *cb, std::uint32_t live, ElectionScope scope,
      std::uint64_t cause)
{
    Election won;
    won.leader = lowestCandidate(*cb, live);
    if (won.leader == kNoLeader)
        return won;
    const bool tracing = trace::enabled(cb->trace);
    if (tracing) {
        // Arm the failover-blackout clock; the promoted leader's first
        // publish consumes the mark. A receiver's leader node died at
        // least promote_after_ns earlier, but this is when it knows.
        std::uint64_t unarmed = 0;
        cb->trace.leader_death_ns.compare_exchange_strong(
            unarmed, monotonicNs(), std::memory_order_acq_rel);
    }
    won.epoch = cb->epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::atomic<std::uint32_t> &gen = cb->stream_generation;
    won.generation = scope == ElectionScope::CrossNode
                         ? gen.fetch_add(1, std::memory_order_acq_rel) + 1
                         : gen.load(std::memory_order_acquire);
    cb->promotions.fetch_add(1, std::memory_order_acq_rel);
    cb->leader_id.store(won.leader, std::memory_order_release);
    if (tracing) {
        trace::stamp(cb->trace, trace::Stage::Election,
                     static_cast<std::uint8_t>(won.leader), 0, won.epoch,
                     monotonicNs(), won.generation, cause);
    }
    return won;
}

} // namespace varan::core
