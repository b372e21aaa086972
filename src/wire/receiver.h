/**
 * @file
 * Remote-node side of multi-node event shipping — and, since protocol
 * v3, the cross-node failover path.
 *
 * A Receiver owns the socket end facing a Shipper and re-materializes
 * the incoming frame stream into a *local* engine layout: events are
 * republished into the local tuple rings through the leader's own
 * core::TupleWriter, and payload frames are re-hosted in the local
 * ShardedPool arena of the publishing tuple. A follower running against this layout (an
 * external-leader engine, exactly like record-replay) consumes the
 * remote stream through the completely unmodified dispatchFollower()
 * loop — divergence detection, payload application and Lamport-clock
 * ordering all behave as if the leader were local. Descriptor
 * transfers are virtualised (the kFdTransfer flag is cleared) since no
 * data channel spans nodes; remote followers replay descriptor numbers
 * only, like replayed logs do.
 *
 * Epoch reconciliation (v3): every adopt() compares the shipper's
 * (engine_epoch, stream_generation) stamp against what this receiver
 * last reconciled. A *newer* generation is a cross-node promotion
 * upstream — the receiver rebases onto it, keeping its materialized
 * prefix and resume cursors (the promoted leader continues the same
 * logical stream). A *stale* stamp — a resurrected pre-failover leader
 * — is rejected with a decodable Error frame before anything streams,
 * so a receiver that outlives several leader generations can never
 * double-apply. The adopted stamp is mirrored into the local control
 * block, so collectStatus() on the receiving node reports the stream
 * it actually consumes.
 *
 * Cross-node promotion: with Options::promote_after_ns set, a link
 * that stays down (or a leader that stops answering the Status-RPC
 * liveness probe) past the deadline triggers promotion — the receiver
 * elects the lowest live LeaderCandidate variant of its local engine,
 * bumps epoch and stream generation, and stores the new leader_id;
 * the elected variant's Monitor notices and switches to leader
 * dispatch once its replay backlog drains (the exact section 5.1
 * machinery, across nodes). Descriptors were re-established locally
 * all along: followers *execute* descriptor-creating calls and mirror
 * numbers, so the promoted leader already owns live descriptors for
 * everything it replayed. If standby peers are configured, the
 * receiver then starts its own Shipper (taps attached *before* the
 * election, so the promoted stream is complete from its first event)
 * toward the surviving nodes, with the bumped generation in its
 * Hello. External effects between the dead leader's last shipped
 * frame and the promotion are re-executed by the new leader —
 * an at-least-once window documented in docs/ARCHITECTURE.md.
 *
 * Duplicate suppression makes the link at-least-once-safe: the
 * receiver tracks the next expected ring sequence per tuple, drops the
 * already-delivered prefix of retransmitted frames, and reports its
 * cursors in every HelloAck, so a shipper reconnecting after a
 * mid-batch link drop resumes without loss or duplication.
 *
 * Credits are batched and sent at externally-visible points — frames
 * containing descriptor-creating, fork or exit events — and every
 * `credit_every` events otherwise (DMON-style relaxed acking).
 */

#ifndef VARAN_WIRE_RECEIVER_H
#define VARAN_WIRE_RECEIVER_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.h"
#include "core/tuple_writer.h"
#include "quorum/lease.h"
#include "rr/log.h"
#include "wire/protocol.h"
#include "wire/shipper.h"

namespace varan::wire {

class Receiver
{
  public:
    struct Options {
        /** Send a Credit frame at least every this many events. */
        std::size_t credit_every = 64;
        /**
         * Cross-node failover deadline: when the link is down (or the
         * leader stops answering the Status-RPC liveness probe) for
         * this long without a successful re-adopt, the receiver
         * promotes its local engine to leader. 0 disables promotion
         * (default — an observer stays an observer). Must be shorter
         * than the follower progress timeout or the variants panic
         * before the takeover.
         */
        std::uint64_t promote_after_ns = 0;
        /** Abstract-socket endpoints of surviving receiver nodes; on
         *  promotion the new leader starts a Shipper toward each (a
         *  connect failure is logged, not fatal — a dead standby just
         *  misses the new stream). */
        std::vector<std::string> standby_peers;
        /** Options for the post-promotion shipper. */
        Shipper::Options promoted_ship;
        /**
         * The quorum control plane (v6): this receiver's identity and
         * the full standby membership. When configured (valid()), the
         * promotion path must first win a lease from a quorum of the
         * membership — every receiver may then safely arm
         * promote_after_ns, and a partitioned minority fences itself
         * (keeps buffering, refuses promotion, reports `fenced`)
         * instead of split-braining. Default-empty keeps the legacy
         * single-watchdog behavior.
         */
        quorum::Config quorum;
        /** Promotion completed: the bumped epoch and elected leader.
         *  Runs on the receiver's serve thread. */
        std::function<void(std::uint32_t epoch, std::uint32_t leader)>
            on_promote;
        /**
         * File-backed sink: when set, every event this receiver
         * publishes into its local rings is also appended to a
         * record-replay log (format v2, rr/log.h) at this path — the
         * continuous fleet-recording substrate: a remote node both
         * follows the stream and keeps a replayable capture of it.
         * Opened at the first successful adopt(); a write failure
         * latches Stats::log_errno and stops the capture without
         * touching the live link.
         */
        std::string record_path;
    };

    struct Stats {
        std::uint64_t frames = 0;
        std::uint64_t events = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t duplicates_dropped = 0;
        std::uint64_t corrupt_frames = 0;
        std::uint64_t credits_sent = 0;
        std::uint64_t reconnects = 0;
        std::uint64_t status_requests = 0; ///< status RPCs sent
        std::uint64_t status_reports = 0;  ///< status replies decoded
        std::uint64_t errors_sent = 0;     ///< stale peers rejected
        std::uint64_t errors_received = 0; ///< rejections from shippers
        std::uint64_t rebases = 0;         ///< generations adopted
        std::uint64_t logged_events = 0;   ///< records in the file sink
        std::uint64_t divergence_records_sent = 0; ///< relayed upstream
        std::int32_t log_errno = 0;        ///< first file-sink failure
    };

    Receiver(const shmem::Region *region, const core::EngineLayout *layout,
             Options options);
    Receiver(const shmem::Region *region, const core::EngineLayout *layout)
        : Receiver(region, layout, Options())
    {
    }
    ~Receiver();

    VARAN_NO_COPY_NO_MOVE(Receiver);

    /** Adopt a connected socket: await the shipper's Hello, validate
     *  the geometry against the local layout and the epoch stamp
     *  against the last reconciled generation, reply with a HelloAck
     *  carrying this receiver's identity and per-tuple resume cursors.
     *  A stale shipper is answered with an Error frame and refused.
     *  Call again with a fresh socket after a link drop (failover). */
    Status adopt(int socket_fd);

    /** Start the background serve thread (also the promotion timer
     *  when promote_after_ns is set). */
    void start();

    /** Stop serving and send Bye. */
    Status finish();

    /** Read and apply frames until the link idles for @p timeout_ms.
     *  @return frames applied; -1 when the link dropped. */
    int serveOnce(int timeout_ms);

    bool linkUp() const { return link_up_.load(std::memory_order_acquire); }

    /** The shipper's handshake snapshot (geometry + epoch stamp +
     *  remote pool pressure). */
    const HelloBody &remoteHello() const { return hello_; }

    /**
     * The coordinator status RPC: send an empty-body Status frame to
     * the shipper. The reply — a full core::StatusReport of the
     * leader-node engine — arrives through the normal frame stream and
     * is retrievable with remoteStatus() once decoded. Doubles as the
     * liveness probe before cross-node promotion.
     */
    Status requestStatus();

    /** Copy out the newest decoded remote StatusReport.
     *  @return false while no report has arrived yet. */
    bool remoteStatus(core::StatusReport *out) const;

    /**
     * The *receiving node's* consolidated status: collectStatus() over
     * the local (external-leader) engine layout with this receiver's
     * wire section filled in — the counterpart of Nvx::status() on the
     * shipping node.
     */
    core::StatusReport localStatus() const;

    /** Next ring sequence expected for @p tuple (resume cursor). */
    std::uint64_t nextSeq(std::uint32_t tuple) const;

    /** This node took over leadership (promotion ran). */
    bool promoted() const
    {
        return promoted_.load(std::memory_order_acquire);
    }

    /** The shipper started at promotion toward the standby peers;
     *  nullptr before promotion or without standby_peers. */
    Shipper *promotedShipper() const { return promoted_shipper_.get(); }

    /** This node fenced itself off the quorum: it keeps buffering but
     *  refuses promotion until it rejoins the majority. Always false
     *  without a configured quorum. */
    bool fenced() const { return lease_ && lease_->fenced(); }

    /** The quorum lease manager; nullptr without a configured
     *  membership. Tests drive its split-phase election directly. */
    quorum::LeaseManager *leaseManager() const { return lease_.get(); }

    /** Force the promotion decision now (tests and operators; the
     *  serve thread calls this when the deadline passes).
     *  @return true if this call promoted the engine. */
    bool promoteNow();

    /** The last Error frame received from a shipper (zeroed code when
     *  none arrived). */
    ErrorBody lastError() const;

    Stats stats() const;

  private:
    bool readFrame();             ///< one frame; false = link down
    bool applyEvents(const FrameHeader &header,
                     std::vector<std::uint8_t> &body);
    /** Re-host one event's payload locally and virtualise its flags. */
    bool prepareEvent(std::uint32_t tuple, ring::Event &event,
                      const std::uint8_t *payload_bytes);
    /** Publish a prepared run with one claim/commit per ring chunk; a
     *  ring still full after kPublishStallNs is warned about, and the
     *  caller drops the link.
     *  @return events actually published (committed slots own their
     *  payloads; the caller must release the rest on shortfall). */
    std::size_t publishRun(std::uint32_t tuple, ring::Event *events,
                           std::size_t count);
    /** Release the local pool payloads of not-yet-published events. */
    void releasePrepared(ring::Event *events, std::size_t count);
    void sendCredit(std::uint32_t tuple);
    /** Reject the connecting shipper with a decodable Error frame. */
    void sendHandshakeError(int socket_fd, WireError code,
                            const HelloBody &hello);
    /** Relay local divergence-ledger records the upstream leader has
     *  not seen yet as one Divergence frame (v5). */
    void shipDivergences();
    void serveLoop();
    void dropLink();

    const shmem::Region *region_;
    const core::EngineLayout *layout_;
    Options options_;
    int socket_fd_ = -1;
    std::atomic<bool> link_up_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> promoted_{false};
    std::thread thread_;
    HelloBody hello_ = {};
    bool seen_hello_ = false;
    core::StatusReport remote_status_ = {};
    bool seen_status_ = false;
    ErrorBody last_error_ = {};
    std::uint64_t receiver_id_ = 0;
    /** The (epoch, generation) last reconciled against — the stamp a
     *  connecting shipper must match or beat. */
    std::uint32_t last_epoch_ = 0;
    std::uint32_t last_generation_ = 0;
    std::unique_ptr<Shipper> promoted_shipper_;
    /** The quorum control plane (Options::quorum); promotion gates on
     *  lease_->acquire() before any epoch/generation bump. */
    std::unique_ptr<quorum::LeaseManager> lease_;

    rr::LogWriter log_; ///< optional file sink (Options::record_path)

    /** Ledger records already relayed upstream (shipDivergences). */
    std::uint64_t ledger_ship_cursor_ = 0;

    std::uint64_t next_seq_[core::kMaxTuples] = {};
    std::uint64_t credited_[core::kMaxTuples] = {};
    /** Per tuple: deliveries since that tuple's last credit. A single
     *  shared counter would let a busy sibling keep resetting it and
     *  starve this tuple's credit — stalling the shipper's window and,
     *  through ring backpressure, the leader itself. */
    std::size_t uncredited_[core::kMaxTuples] = {};
    mutable std::mutex mutex_;
    Stats stats_;
};

} // namespace varan::wire

#endif // VARAN_WIRE_RECEIVER_H
