#include "rr/replayer.h"

#include <cstring>

#include "common/logging.h"
#include "core/tuple_writer.h"

namespace varan::rr {

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
    // Fork events activate tuples exactly as a live leader would (a
    // second pass re-activates them idempotently). A Fork naming no
    // tuple is a corrupt log, not a reason to abort the process.
    if (record.event.type == ring::EventType::Fork &&
        !core::activateTuple(layout_->controlBlock(region_),
                             record.event.args[0])) {
        return Status(Errno{EPROTO});
    }

    shmem::ShardedPool pool = layout_->pool(region_);
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

    core::TupleWriter writer(region_, *layout_, record.tuple);
    if (writer.publish({&event, 1}, core::publishWait()) == 0)
        panic("replay publish stalled");
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
