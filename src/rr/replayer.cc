#include "rr/replayer.h"

#include <cstring>

#include "common/logging.h"

namespace varan::rr {

namespace {

/** Shared with Monitor::publishEvent: recycle the slot's old payload. */
void
publishWithShadow(const shmem::Region *region,
                  const core::EngineLayout *layout, std::uint32_t tuple,
                  ring::Event &event, shmem::Offset payload)
{
    core::ControlBlock *cb = layout->controlBlock(region);
    shmem::ShardedPool pool = layout->pool(region);
    ring::RingBuffer ring = layout->tupleRing(region, tuple);
    std::uint64_t *shadow = layout->tupleShadow(region, tuple);
    ring::WaitSpec wait;
    wait.timeout_ns = core::kPublishStallNs;
    std::uint64_t seq = 0;
    if (!ring.claim(1, &seq, wait))
        panic("replay publish stalled");
    // Recycle only once the slot is claimed: by then the gating
    // protocol has proven every consumer is done with the old payload.
    std::uint64_t idx = seq & (cb->ring_capacity - 1);
    if (shadow[idx] != 0)
        pool.release(shadow[idx]);
    shadow[idx] = payload;
    ring.commit({&event, 1});
    cb->events_streamed.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Replayer::Replayer(const shmem::Region *region,
                   const core::EngineLayout *layout, std::string path)
    : region_(region), layout_(layout), path_(std::move(path))
{
}

Status
Replayer::open()
{
    if (reader_.isOpen())
        return Status::ok();
    return reader_.open(path_);
}

Status
Replayer::publishRecord(const LogRecord &record)
{
    shmem::ShardedPool pool = layout_->pool(region_);
    core::ControlBlock *cb = layout_->controlBlock(region_);

    shmem::Offset payload = 0;
    if (!record.payload.empty()) {
        const auto size =
            static_cast<std::uint32_t>(record.payload.size());
        payload = pool.allocate(record.tuple, size, 1);
        if (payload == 0)
            return Status(Errno{ENOMEM});
        std::memcpy(pool.pointer(payload, size), record.payload.data(),
                    size);
        stats_.payload_bytes += size;
    }

    ring::Event event = record.event;
    // Virtualise descriptor transfer: replayed followers replay
    // results only; there is no live leader to duplicate fds from.
    event.flags &= ~static_cast<std::uint32_t>(ring::kFdTransfer);
    // Logs older than v3 carry FNV-1a content hashes, which no follower
    // can check against its CRC32C: replay those writes unchecked.
    if (reader_.version() < kCrc32cContentHashVersion)
        event.flags &= ~static_cast<std::uint32_t>(ring::kDataHash);
    if (payload != 0) {
        event.payload = static_cast<std::uint32_t>(payload);
        event.payload_size =
            static_cast<std::uint32_t>(record.payload.size());
        event.flags |= ring::kHasPayload;
    } else if (event.hasPayload()) {
        event.flags &= ~static_cast<std::uint32_t>(ring::kHasPayload);
        event.payload = 0;
        event.payload_size = 0;
    }

    // Fork events activate tuples exactly as a live leader would (a
    // second pass re-activates them idempotently).
    if (event.type == ring::EventType::Fork) {
        auto t = static_cast<std::uint32_t>(event.args[0]);
        VARAN_CHECK(t < core::kMaxTuples);
        std::uint32_t current =
            cb->num_tuples.load(std::memory_order_acquire);
        while (current <= t && !cb->num_tuples.compare_exchange_weak(
                                   current, t + 1,
                                   std::memory_order_acq_rel)) {
        }
        cb->tuples[t].active.store(1, std::memory_order_release);
    }

    publishWithShadow(region_, layout_, record.tuple, event, payload);
    ++stats_.events;
    return Status::ok();
}

Result<std::size_t>
Replayer::replayChunk(std::size_t max_events)
{
    Status opened = open();
    if (!opened.isOk())
        return Result<std::size_t>(Errno{opened.error().code});
    if (finished_)
        return static_cast<std::size_t>(0);

    std::size_t published = 0;
    LogRecord record;
    while (published < max_events) {
        LogReader::Next n = reader_.next(&record);
        if (n != LogReader::Next::Record) {
            finished_ = true;
            stats_.truncated = n == LogReader::Next::Truncated;
            ++stats_.passes;
            break;
        }
        Status status = publishRecord(record);
        if (!status.isOk())
            return Result<std::size_t>(Errno{status.error().code});
        ++published;
    }
    return published;
}

Result<Replayer::Stats>
Replayer::replayAll()
{
    for (;;) {
        auto chunk = replayChunk(256);
        if (!chunk.ok())
            return Result<Stats>(chunk.error());
        if (finished_)
            return stats_;
    }
}

Status
Replayer::rewind()
{
    Status opened = open();
    if (!opened.isOk())
        return opened;
    Status rewound = reader_.rewind();
    if (!rewound.isOk())
        return rewound;
    finished_ = false;
    return Status::ok();
}

} // namespace varan::rr
