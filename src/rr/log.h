/**
 * @file
 * On-disk log format for record-replay (paper section 5.4).
 *
 * VARAN's in-memory ring is deallocated as soon as followers consume
 * it; full record-replay adds two artificial clients: a *recorder*
 * follower that persists the stream, and a *replayer* leader that
 * publishes a persisted stream back into the rings. This header defines
 * the byte format both share.
 *
 * Format v2 (normative layout in docs/RECORD_REPLAY.md) makes the log
 * crash-consistent: every record carries an FNV-1a checksum over its
 * header and payload, the header version is validated on open, and a
 * torn tail — the recorder was SIGKILLed mid-record, or the disk
 * filled — yields the valid prefix plus a `truncated` flag instead of
 * rejecting the whole log with EPROTO. v1 logs (no checksums) remain
 * readable.
 *
 * Format v3 keeps the v2 byte layout; only the meaning of a recorded
 * kDataHash value changed, from FNV-1a to CRC32C (the engine's content
 * hash). An old log's content hashes cannot be checked against a
 * CRC32C, so the replayer drops them from v1/v2 logs.
 */

#ifndef VARAN_RR_LOG_H
#define VARAN_RR_LOG_H

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "ring/event.h"

namespace varan::rr {

/** Write exactly @p len bytes to a file descriptor, retrying EINTR
 *  and short writes. The file-backed counterpart of wire::writeFull
 *  (which is sendmsg-based and only works on sockets). */
inline bool
writeFileFull(int fd, const void *buf, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += static_cast<std::size_t>(n);
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

inline constexpr char kLogMagic[8] = {'V', 'R', 'R', 'L', 'O', 'G', '1',
                                      '\0'};

/** Current log format version written by every recorder. */
inline constexpr std::uint32_t kLogVersion = 3;

/** First version whose kDataHash values are CRC32C content hashes. */
inline constexpr std::uint32_t kCrc32cContentHashVersion = 3;

struct LogHeader {
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
};

/** v1 record header (legacy, checksum-free): tuple + size + event. */
struct RecordHeaderV1 {
    std::uint32_t tuple;
    std::uint32_t payload_size; ///< bytes following the event
    ring::Event event;
};

/**
 * v2 record header: the v1 fields plus a per-record checksum.
 * `record_crc` is FNV-1a over the first kRecordCrcOffset header bytes
 * followed by the payload bytes, so a torn or bit-flipped record is
 * detected instead of replayed as garbage.
 */
struct RecordHeader {
    std::uint32_t tuple;
    std::uint32_t payload_size; ///< bytes following the header
    ring::Event event;
    std::uint32_t record_crc;
    std::uint32_t reserved;
};

/** Bytes of RecordHeader covered by record_crc (everything before it). */
inline constexpr std::size_t kRecordCrcOffset =
    sizeof(RecordHeader) - 2 * sizeof(std::uint32_t);

static_assert(sizeof(RecordHeaderV1) == 72, "v1 record layout is frozen");
static_assert(sizeof(RecordHeader) == 80, "v2 record layout is frozen");

/** FNV-1a, the record checksum of every log version. The @p seed
 *  parameter chains partial hashes (header, then payload). */
inline std::uint32_t
logChecksum(const void *data, std::size_t len,
            std::uint32_t seed = 2166136261u)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t hash = seed;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 16777619u;
    }
    return hash;
}

/** The checksum a v2 record must carry: header-before-crc + payload. */
inline std::uint32_t
recordChecksum(const RecordHeader &rec, const void *payload)
{
    std::uint32_t crc = logChecksum(&rec, kRecordCrcOffset);
    if (rec.payload_size > 0 && payload != nullptr)
        crc = logChecksum(payload, rec.payload_size, crc);
    return crc;
}

/** Serialize one v2 record (header + checksum + payload) onto @p out. */
void appendRecord(std::vector<std::uint8_t> &out, std::uint32_t tuple,
                  const ring::Event &event, const void *payload,
                  std::size_t payload_size);

/** In-memory form of a parsed record. */
struct LogRecord {
    std::uint32_t tuple = 0;
    ring::Event event = {};
    std::vector<std::uint8_t> payload;
};

/** Everything readLog() can say about a log file. */
struct LogContents {
    std::uint32_t version = 0;
    /** The final record was torn or failed its checksum; `records`
     *  holds the valid prefix. */
    bool truncated = false;
    std::vector<LogRecord> records;
};

/**
 * Streaming (non-slurping) log iteration: open() validates the header
 * (bad magic is EPROTO, an unknown version is ENOTSUP — decodable, not
 * parsed as garbage), then next() yields one record at a time without
 * materialising the whole log. A torn tail, or a record that fails
 * its checksum or names no tuple, ends the stream with Truncated.
 */
class LogReader
{
  public:
    enum class Next : std::uint32_t {
        Record = 0,    ///< *out holds the next record
        End = 1,       ///< clean end of log
        Truncated = 2, ///< torn tail; the prefix already yielded is valid
    };

    LogReader() = default;
    ~LogReader();

    VARAN_NO_COPY_NO_MOVE(LogReader);

    Status open(const std::string &path);
    bool isOpen() const { return file_ != nullptr; }
    std::uint32_t version() const { return version_; }

    /** Advance to the next record. Only valid after a successful
     *  open(); once End/Truncated is returned every further call
     *  repeats it. */
    Next next(LogRecord *out);

    /** Seek back to the first record (replay-into-restart re-feeds the
     *  recorded prefix to a respawned variant from the top). */
    Status rewind();

    void close();

  private:
    std::FILE *file_ = nullptr;
    std::uint32_t version_ = 0;
    bool done_ = false;
    bool truncated_ = false;
};

/**
 * Buffered, error-checked log writer used by the in-band recorder and
 * the wire receiver's file sink (the tap-drain LogSink has its own
 * spill pipeline in rr/recorder.h). The first write failure is latched
 * and every later append()/flush() returns it — the caller can never
 * keep "succeeding" over a corrupt log.
 */
class LogWriter
{
  public:
    LogWriter() = default;
    ~LogWriter();

    VARAN_NO_COPY_NO_MOVE(LogWriter);

    /** Create/truncate @p path and write the kLogVersion header (checked). */
    Status open(const std::string &path);
    bool isOpen() const { return fd_ >= 0; }

    /** Serialize one record into the buffer; flushes once the buffer
     *  exceeds the flush threshold (0 = flush every record). */
    Status append(std::uint32_t tuple, const ring::Event &event,
                  const void *payload, std::size_t payload_size);

    Status flush();
    /** flush() + close(), both checked. */
    Status close();
    /** Failure path: close and unlink the partially written file. */
    void discard();

    /** First latched errno (0 = healthy). */
    int error() const { return errno_; }
    std::uint64_t records() const { return records_; }
    std::uint64_t bytesWritten() const { return bytes_written_; }

    void setFlushThreshold(std::size_t bytes) { flush_threshold_ = bytes; }

  private:
    Status latch(int err);

    int fd_ = -1;
    std::string path_;
    std::vector<std::uint8_t> buf_;
    std::size_t flush_threshold_ = 0; ///< flush every append by default
    int errno_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t bytes_written_ = 0;
};

/** Parse an entire log file (tests and offline analysis). Built on
 *  LogReader, so a torn tail yields LogContents::truncated rather than
 *  an error. */
Result<LogContents> readLog(const std::string &path);

} // namespace varan::rr

#endif // VARAN_RR_LOG_H
