/**
 * @file
 * The replay side of section 5.4: an artificial leader that reads a
 * persisted log and publishes its events back into the tuple rings for
 * follower variants to consume. Because VARAN was designed to run
 * multiple instances at once, several variants can be replayed against
 * one log simultaneously — e.g. to find which revisions in a range are
 * susceptible to a reported crash.
 *
 * The log is iterated through a streaming LogReader — one record in
 * memory at a time, never the whole file — so multi-gigabyte fleet
 * captures replay in constant memory. A torn tail (the recorder died
 * mid-record) ends the replay cleanly with Stats::truncated set; the
 * valid prefix is replayed in full.
 *
 * Replay-into-restart: rewind() seeks back to the first record so the
 * recorded prefix can be fed again to a variant the restart policy
 * respawned. A respawned follower re-runs its entry function from
 * scratch and re-attaches at the current stream tail, so the only
 * stream it can converge on is the recorded one replayed from the
 * top — quiesce publishing in EngineConfig::on_restart, then rewind()
 * and replay again (multi-tuple apps included: Fork events re-activate
 * their tuples idempotently). See docs/RECORD_REPLAY.md.
 */

#ifndef VARAN_RR_REPLAYER_H
#define VARAN_RR_REPLAYER_H

#include <string>

#include "core/layout.h"
#include "rr/log.h"

namespace varan::rr {

class Replayer
{
  public:
    struct Stats {
        std::uint64_t events = 0;
        std::uint64_t payload_bytes = 0;
        std::uint32_t passes = 0;  ///< completed log passes (rewinds + 1)
        bool truncated = false;    ///< the log ended in a bad record
    };

    Replayer(const shmem::Region *region, const core::EngineLayout *layout,
             std::string path);

    /** Open the log and validate its header: bad magic is EPROTO, an
     *  unknown version ENOTSUP. Implied by the first replay call. */
    Status open();

    /**
     * Publish up to @p max_events log records into the rings,
     * honouring backpressure from the replaying followers.
     * Descriptor-transfer flags are virtualised away (replayed
     * followers never touch real fds). @return the number published;
     * 0 means the log is exhausted (check truncated()).
     */
    Result<std::size_t> replayChunk(std::size_t max_events);

    /** Publish the whole log (or the rest of it). */
    Result<Stats> replayAll();

    /** Seek back to the first record for another pass — the
     *  replay-into-restart re-feed. */
    Status rewind();

    /** Every record up to the end of the valid prefix was published. */
    bool finished() const { return finished_; }
    /** The prefix ended in a torn record, or one that failed its
     *  checksum or named no tuple. */
    bool truncated() const { return stats_.truncated; }

    Stats stats() const { return stats_; }

  private:
    Status publishRecord(const LogRecord &record);

    const shmem::Region *region_;
    const core::EngineLayout *layout_;
    std::string path_;
    LogReader reader_;
    Stats stats_;
    bool finished_ = false;
};

} // namespace varan::rr

#endif // VARAN_RR_REPLAYER_H
