/**
 * @file
 * Leader-node side of multi-node event shipping.
 *
 * A Shipper attaches tap consumer slots to every tuple ring (exactly
 * like the record-replay recorder) and streams the leader's event
 * history to one or more remote Receivers — one shipper, N peers.
 * Batching is DMON-style relaxed: events are drained with peekBatch()
 * — one head acquire per run — serialized once into Events frames of
 * up to `ship_batch` events (payload bytes inlined behind the event
 * array) and fanned out to every peer whose credit window is open,
 * through a netio::EventLoop that also delivers each peer's Credit
 * frames.
 *
 * Idle policy: when a pass drains nothing because every tap is empty,
 * the pump sleeps on the tap rings' waitlock exactly like a local
 * follower (RingBuffer::awaitAnyData, one futex_waitv over every open
 * tuple's ring), outside its mutex, so the leader's commit() wakes it.
 * Each such sleep lasts at most 1 ms, and every pass first reads the
 * peer sockets, so peer input (Status requests, Divergence relays,
 * Bye) waits at most 1 ms. Only when the backlog is held back by
 * closed credit windows does the pump sleep on its peer sockets
 * instead, for the Credit frame that reopens one.
 *
 * Fan-out bookkeeping is a per-peer session table keyed by the
 * receiver's stable identity (HelloAck::receiver_id): each session
 * carries its own credit window, send cursor and non-blocking outbox,
 * so a stalled peer neither gates its siblings nor wedges the pump
 * thread in a blocking write. Frames are retired from the shared
 * retransmit buffer once the *slowest* registered session credits past
 * them; a session that falls further behind than `retain_limit` events
 * is evicted (it would pin the buffer forever) and must resync from a
 * fresh stream. Ring drain is gated by the *fastest* live session —
 * remote backpressure only propagates to the leader when every peer
 * stalls.
 *
 * Flow control is credit-based per peer: at most `credit_window`
 * events per tuple may be unacknowledged to one peer; beyond that,
 * frames stay buffered for that peer while faster peers keep
 * receiving. Shipped-but-unacked frames are kept in the retransmit
 * buffer, so a link drop mid-batch is survivable: addPeer() on a
 * replacement socket re-handshakes, matches the session by
 * receiver_id, learns the resume cursors from the HelloAck, drops what
 * already landed and retransmits the rest — at-least-once delivery
 * with receiver-side dedup, never a hole.
 *
 * The v3 handshake is epoch-stamped: Hello carries the engine's
 * (engine_epoch, stream_generation); a receiver that already
 * reconciled against a newer generation answers with a decodable
 * Error frame instead of a HelloAck, and a receiver whose resume
 * cursor is behind this shipper's retained tail is rejected with
 * PeerTooFarBehind. A promoted shipper (taps attached mid-stream)
 * therefore serves exactly the suffix it owns and refuses peers it
 * cannot complete.
 */

#ifndef VARAN_WIRE_SHIPPER_H
#define VARAN_WIRE_SHIPPER_H

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/layout.h"
#include "netio/eventloop.h"
#include "wire/protocol.h"

namespace varan::wire {

class Shipper
{
  public:
    /** Largest supported ship batch (events per Events frame). */
    static constexpr std::size_t kMaxShipBatch = 64;

    struct Options {
        /** Max events per Events frame (the ship batch of section-style
         *  "relaxed synchronization"): 1 degenerates to per-event
         *  shipping, 16-64 amortize framing + writev cost. Clamped to
         *  [1, kMaxShipBatch]. Seeds the live ShipBatch `Tuning` knob
         *  (first-seeder-wins); the value actually in force is re-read
         *  from the shared region at every batch boundary, so a live
         *  retune applies without restart. */
        std::size_t ship_batch = 16;
        /** Max unacknowledged events per tuple *per peer* before that
         *  peer stops receiving new frames (bounds remote run-ahead).
         *  Seeds the live CreditWindow `Tuning` knob, re-read like
         *  ship_batch. */
        std::size_t credit_window = 4096;
        /** A session whose credited cursor falls this many events
         *  behind the drain cursor is evicted — it would pin the
         *  retransmit buffer forever. 0 = 4 * credit_window. With a
         *  single peer the drain gate keeps the lag under
         *  credit_window, so eviction can only fire in fan-out. */
        std::size_t retain_limit = 0;
        /** Per-peer outbox cap (bytes buffered for a peer whose socket
         *  is full before new frames stop being queued to it). Soft by
         *  one frame: a frame whose direct send hits EAGAIN mid-write
         *  must park its remainder whole to preserve framing, so peak
         *  unsent bytes are the cap plus one frame. The sent prefix is
         *  compacted away, so the buffer itself stays within twice the
         *  cap (for frames no larger than the cap). */
        std::size_t outbox_limit = 4u << 20;
        /** Unsolicited Status frame broadcast interval (ns); 0 = off.
         *  Every live peer receives the same coordinator snapshot the
         *  status RPC serves — the receiver-side decode path is
         *  identical, no request round-trip needed. */
        std::uint64_t status_push_ns = 0;
    };

    struct Stats {
        std::uint64_t frames = 0;  ///< frame transmissions (per peer)
        std::uint64_t events = 0;  ///< events drained from the rings
        std::uint64_t bytes = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t credits_received = 0;
        std::uint64_t retransmitted_frames = 0;
        std::uint64_t reconnects = 0;
        std::uint64_t status_requests_served = 0; ///< status RPC replies
        std::uint64_t status_pushes = 0;   ///< unsolicited Status rounds
        std::uint64_t errors_sent = 0;     ///< Error frames sent
        std::uint64_t errors_received = 0; ///< Error frames decoded
        std::uint64_t drain_passes = 0;    ///< drainTuple passes with work
        std::uint64_t credit_stalls = 0;   ///< passes gated by the window
        std::uint64_t divergence_records = 0; ///< relayed from receivers
        std::uint32_t peers = 0;           ///< registered sessions
        std::uint32_t peers_evicted = 0;   ///< sessions dropped as behind
    };

    Shipper(const shmem::Region *region, const core::EngineLayout *layout,
            Options options);
    Shipper(const shmem::Region *region, const core::EngineLayout *layout)
        : Shipper(region, layout, Options())
    {
    }
    ~Shipper();

    VARAN_NO_COPY_NO_MOVE(Shipper);

    /** Attach a tap consumer slot on every tuple ring. On a fresh
     *  engine (pre-spawn hook) the taps see the stream from event one;
     *  on a promoted engine they attach at the current ring head and
     *  the shipper serves the suffix from there (its cursor floor). */
    Status attachTaps();

    /**
     * Adopt a connected socket as a peer: send Hello (geometry + epoch
     * stamp + pool stats), await HelloAck, and bind or resume the
     * session keyed by the receiver's identity. A resumed session
     * adopts the receiver's cursors and retransmits the
     * unacknowledged tail; a new session starts at the receiver's
     * cursors (all zeros for a fresh receiver). A receiver that
     * rejects the link answers with an Error frame, which is decoded
     * into lastError() and surfaced as EPROTO.
     */
    Status addPeer(int socket_fd);

    /** Compatibility alias for the single-peer API: adopt the first
     *  (or a replacement) socket. Identical to addPeer(). */
    Status handshake(int socket_fd) { return addPeer(socket_fd); }

    /** Failover path: adopt a replacement socket after a link drop.
     *  The session is matched by receiver_id and its unacknowledged
     *  tail retransmitted. */
    Status reconnect(int socket_fd);

    /** Start the background pump thread. */
    void start();

    /** Drain what is left in the rings, send Bye, stop the pump, and
     *  detach the taps. */
    Status finish();

    /** One synchronous pump pass (tests and benches drive this
     *  directly): handle pending credits, drain every ring once, fan
     *  out what fits to every open peer window. @return events drained
     *  this pass. */
    std::size_t pumpOnce();

    /** True while at least one peer link is usable. */
    bool linkUp() const { return link_up_.load(std::memory_order_acquire); }

    /** Registered peer sessions (live or awaiting reconnect). */
    std::size_t peerCount() const;

    /** The last Error frame a peer answered a handshake with (zeroed
     *  code when no handshake was ever rejected). */
    ErrorBody lastError() const;

    Stats stats() const;

    /** Fill a StatusReport's shipper section from a Stats snapshot —
     *  the one mapping used by both Nvx::status() and the wire Status
     *  RPC reply, so local and remote reports can never disagree. */
    static void fillWireStatus(core::ShipperWireStatus &out,
                               const Stats &stats, bool link_up);

  private:
    struct TupleShip {
        int tap_slot = -1;
        std::uint64_t next_seq = 0;  ///< next ring seq to drain
        std::uint64_t floor_seq = 0; ///< oldest seq this shipper can serve
        /** monotonicNs() when the credit window first gated this tuple;
         *  0 while draining. The span until the window reopens is one
         *  credit_stall histogram sample. */
        std::uint64_t stall_since_ns = 0;
    };

    /** A serialized frame kept until every session credits past it. */
    struct PendingFrame {
        std::uint32_t tuple = 0;
        std::uint64_t seq = 0;
        std::uint32_t count = 0;
        std::vector<std::uint8_t> bytes; ///< header + body, wire-ready
    };

    /** One receiver's view of the stream. */
    struct PeerSession {
        std::uint64_t receiver_id = 0;
        int socket_fd = -1;
        bool link_up = false;
        std::uint64_t sent[core::kMaxTuples] = {};  ///< next seq to send
        std::uint64_t acked[core::kMaxTuples] = {}; ///< credited cursor
        std::vector<std::uint8_t> outbox; ///< bytes the socket refused
        std::size_t outbox_head = 0;      ///< consumed prefix of outbox
    };

    /** The live `Tuning` knob values in force right now (clamped to
     *  this shipper's own hard limits). */
    std::size_t liveShipBatch() const;
    std::size_t liveCreditWindow() const;
    /** Eviction threshold derived from the live credit window unless
     *  Options::retain_limit was set explicitly. */
    std::size_t liveRetainLimit() const;

    /** Broadcast an unsolicited Status frame to every live peer when
     *  the push interval elapsed (Options::status_push_ns). */
    void maybePushStatus();

    /** pumpOnce() for a caller that holds mutex_. */
    std::size_t pumpLocked();

    /** Why a pass drained nothing. */
    enum class Idle {
        WindowOpen,    ///< backlog behind an open window: pump again
        WindowsClosed, ///< backlog, every window closed: await credits
        Drained,       ///< every tap drained: sleep on the rings
    };
    /** Decide why the pass just run was idle; caller holds mutex_.
     *  Also lists the ring and tap slot of every open tuple — the set
     *  the pump sleeps on when the answer is Drained. */
    Idle idleReason(ring::RingBuffer *rings, int *slots, std::size_t *count);

    std::size_t drainTuple(std::uint32_t tuple);
    /** Send buffered frames to every live peer whose window is open. */
    void fanOut();
    void sendBacklog(PeerSession &peer);
    /** Queue wire-ready bytes to @p peer (non-blocking; socket first,
     *  outbox overflow second). @return false when the outbox cap is
     *  hit — the caller must not advance its cursor. */
    bool queueBytes(PeerSession &peer, const std::uint8_t *data,
                    std::size_t len);
    /** Flush the peer's outbox as far as the socket accepts. */
    void flushOutbox(PeerSession &peer);
    void handlePeerInput(int fd);
    void handleCredits(PeerSession &peer, const FrameHeader &header);
    /** Answer a status request: assemble a core::StatusReport from the
     *  shared region plus this shipper's own statistics and send it as
     *  a Status frame (the coordinator status RPC). */
    void serveStatusRequest(PeerSession &peer);
    /** Retire buffered frames every session has credited, advancing
     *  the per-tuple cursor floor. */
    void retireAcked();
    /** Drop sessions whose lag exceeds retain_limit. */
    void evictStragglers();
    PeerSession *peerByFd(int fd);
    /** Highest credited cursor among live sessions — the drain gate
     *  (falls back to all sessions when no link is up, so a sole
     *  disconnected peer keeps its reconnect-retransmit window). */
    std::uint64_t fastestAcked(std::uint32_t tuple) const;
    /** Any tuple ring with events the tap has not drained yet? */
    bool ringBacklog();
    /** Any live peer with drained frames not yet on the wire? */
    bool unsentBacklog();
    /** Ship all remaining ring events, waiting (bounded) for credits
     *  when the window closes — the shutdown tail must not truncate. */
    void drainRemaining();
    void pumpLoop();
    Status sendHello(int socket_fd);
    void dropPeerLink(PeerSession &peer);
    void refreshLinkUp();

    const shmem::Region *region_;
    const core::EngineLayout *layout_;
    Options options_;
    core::TuningBlock *tuning_ = nullptr;
    bool retain_explicit_ = false;
    std::uint64_t last_status_push_ns_ = 0;
    std::atomic<bool> link_up_{false};
    std::atomic<bool> stopping_{false};
    std::thread thread_;
    netio::EventLoop loop_;

    TupleShip tuples_[core::kMaxTuples];
    std::vector<std::unique_ptr<PeerSession>> peers_;
    std::deque<PendingFrame> unacked_;
    ErrorBody last_error_ = {};
    mutable std::mutex mutex_; ///< guards tuples_/peers_/unacked_/stats_
    Stats stats_;
};

} // namespace varan::wire

#endif // VARAN_WIRE_SHIPPER_H
