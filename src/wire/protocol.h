/**
 * @file
 * Framed wire protocol for multi-node event shipping (DMON-style
 * relaxed batching across the wire, arXiv:1903.03643).
 *
 * The normative byte-level specification — frame header layout,
 * checksum coverage, every body struct, the epoch-reconciliation rules
 * and the v1→v3 version history — lives in docs/WIRE_PROTOCOL.md.
 * Keep the two in sync: CI greps that document for the version this
 * header declares.
 *
 * A Shipper on the leader's node drains the tuple rings and streams
 * them to one or more Receivers on remote nodes, each of which
 * re-materializes the events into a local ring/pool arena so an
 * unmodified follower dispatch loop can consume them. The stream is a
 * sequence of frames:
 *
 *   [FrameHeader][body bytes]
 *
 * Frame types:
 *   Hello     shipper -> receiver: engine geometry (ring capacity,
 *             tuple count, variants), the shipping engine's
 *             (engine_epoch, stream_generation) stamp, plus a
 *             per-shard pool statistics snapshot — the receiver
 *             validates compatibility and epoch freshness before
 *             anything streams.
 *   HelloAck  receiver -> shipper: the receiver's stable identity
 *             (receiver_id, so a reconnect resumes *its* session on a
 *             fan-out shipper), the (epoch, generation) it last
 *             reconciled against, and per-tuple resume cursors (next
 *             ring sequence the receiver expects). A fresh link acks
 *             all zeros; a reconnect acks what already arrived, so the
 *             shipper retransmits only the unacknowledged tail.
 *   Events    shipper -> receiver: `count` ring events for one tuple
 *             starting at ring sequence `seq`, followed by the pool
 *             payload bytes of every event that carries a payload,
 *             back to back in event order (sizes come from each
 *             event's payload_size field).
 *   Credit    receiver -> shipper: per-tuple delivery confirmations —
 *             batched flow control. The shipper keeps at most
 *             `credit_window` unacknowledged events per tuple *per
 *             peer* and retires its retransmit buffer up to the
 *             slowest peer's credited cursor.
 *   Status    the coordinator status RPC. An empty-body Status frame
 *             (receiver -> shipper) is a *request*; the shipper
 *             answers with a Status frame whose body is one
 *             core::StatusReport — the same consolidated snapshot
 *             Nvx::status() serves locally. Receivers also use it as a
 *             liveness probe before cross-node promotion.
 *   Divergence receiver -> shipper: structured divergence records a
 *             remote follower appended to its node's ledger, relayed
 *             upstream so the leader's coordinator (and its
 *             on_divergence_record hook) sees divergences fleet-wide. The
 *             body is `count` trace::DivergenceRecord structs; the
 *             shipper appends them to the leader's ledger tagged with
 *             the sending receiver's identity.
 *   Bye       either side: orderly end of stream.
 *   Error     either side: a decodable rejection (stale epoch or
 *             generation, geometry mismatch, resume cursor behind the
 *             retained tail). Carries both sides' (epoch, generation)
 *             so the operator can see *why* the link was refused. The
 *             sender drops the link after an Error.
 *   Lease     receiver <-> receiver (v6): quorum-plane heartbeat and
 *             lease announcement. Every member broadcasts one
 *             periodically carrying the lease holder and term it
 *             believes in; a holder's heartbeat refreshes the lease on
 *             every peer that hears it.
 *   Vote      receiver <-> receiver (v6): one election round-trip. A
 *             candidate sends a Request for a fresh term; each peer
 *             answers Grant or Deny. A candidate needs grants from a
 *             quorum of the configured membership before it may bump
 *             epoch/generation and promote.
 *   Fence     receiver <-> receiver (v6): an authoritative order to
 *             step aside, sent by a quorum-backed holder to a node
 *             still claiming a stale lease term. The target stops
 *             serving (keeps buffering) until it rejoins the majority.
 *
 * Integers are native-endian (x86-64 on both ends, matching the event
 * layout itself which is memcpy'd); the body is integrity-checked with
 * CRC32C. Version changes bump kProtocolVersion, and a receiver
 * rejects frames whose version it does not speak.
 */

#ifndef VARAN_WIRE_PROTOCOL_H
#define VARAN_WIRE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/checksum.h"
#include "core/layout.h"
#include "core/status.h"
#include "ring/event.h"
#include "shmem/pool.h"

namespace varan::wire {

inline constexpr std::uint32_t kFrameMagic = 0x31525756; // "VWR1"
/** v9: frame bodies are checksummed with CRC32C instead of FNV-1a,
 *  and an event's kDataHash content hash is CRC32C too (the hash a
 *  remote follower checks its own write buffer against).
 *  v8: the leader's batched publish mode is gone, so the Status body
 *  lost its two knob values (TuningStatus) and its dwell histogram
 *  (TraceStatus).
 *  v7: the Status body's live-tuning section shrank to the four knob
 *  values (TuningStatus): the adaptive-controller counters, the pin
 *  mask and the top-k fast-path fields are gone.
 *  v6: the quorum control plane — Lease/Vote/Fence frames carry
 *  lease-based leader election between receiver nodes, so promotion
 *  is gated on a quorum of the configured membership instead of a
 *  single hand-armed watchdog. The Status body grew the QuorumStatus
 *  section and the receiver's `fenced` flag.
 *  v5: the Divergence frame ships structured divergence records
 *  (trace::DivergenceRecord) from a remote follower node back to the
 *  leader's coordinator, and the Status body grew the TraceStatus
 *  observability section (latency histograms + ledger tail).
 *  v4: the Status frame body (core::StatusReport) grew a live-tuning
 *  section and extended shipper statistics, and the
 *  shipper may broadcast unsolicited Status frames on a configured
 *  push interval (the receiver's decode path is unchanged — any
 *  non-empty Status frame updates its remote snapshot).
 *  v3: Hello/HelloAck carry (engine_epoch, stream_generation) and the
 *  receiver's stable identity; the Error frame makes rejections
 *  decodable — the epoch-reconciliation handshake behind cross-node
 *  failover and one-shipper/N-receiver fan-out.
 *  v2: the Status frame became the status RPC (empty body = request,
 *  core::StatusReport body = reply); in v1 it carried a HelloBody and
 *  nothing ever sent it. */
inline constexpr std::uint16_t kProtocolVersion = 9;

// The Status frame body is a raw StatusReport. A layout change must bump
// kProtocolVersion and update docs/WIRE_PROTOCOL.md, then this size.
static_assert(sizeof(core::StatusReport) == 2312,
              "StatusReport layout changed: bump kProtocolVersion and "
              "update the Status body size in docs/WIRE_PROTOCOL.md");

/** Upper bound on a frame body; anything larger is corruption. */
inline constexpr std::uint32_t kMaxBodyBytes = 16u << 20;

enum class FrameType : std::uint16_t {
    Invalid = 0,
    Hello,
    HelloAck,
    Events,
    Credit,
    Status,
    Bye,
    Error,
    /** receiver -> shipper: `count` trace::DivergenceRecord entries a
     *  remote follower appended to its local ledger, relayed so the
     *  leader's coordinator sees divergences fleet-wide (v5). */
    Divergence,
    /** receiver <-> receiver (v6): quorum heartbeat + lease
     *  announcement (LeaseBody). */
    Lease,
    /** receiver <-> receiver (v6): election request/grant/deny
     *  (VoteBody). */
    Vote,
    /** receiver <-> receiver (v6): authoritative step-aside order from
     *  a quorum-backed lease holder (FenceBody). */
    Fence,
};

/** Why a peer refused the link (ErrorBody::code). */
enum class WireError : std::uint32_t {
    None = 0,
    /** The peer's stream_generation is older than what this side
     *  already reconciled against — a resurrected pre-failover leader
     *  must not overwrite the promoted stream. */
    StaleGeneration = 1,
    /** Same generation, but the peer's engine_epoch regressed. */
    StaleEpoch = 2,
    /** Ring capacity / tuple bound do not match the local layout. */
    GeometryMismatch = 3,
    /** The receiver's resume cursor is behind the shipper's retained
     *  tail (frames already retired or never taped) — the receiver
     *  needs a full resync this stream cannot provide. */
    PeerTooFarBehind = 4,
    /** The receiver's resume cursor is *ahead* of the shipper's drain
     *  cursor: it holds a tail the dead leader never replicated to
     *  this (promoted) node. Accepting it would silently diverge —
     *  the promoted leader publishes different events at those
     *  positions. */
    CursorAheadOfStream = 5,
    /** The node behind this endpoint no longer consumes any stream —
     *  it promoted and leads its own generation. Tells a concurrently
     *  promoted sibling (or a resurrected leader) that nothing it
     *  ships here will ever be read. */
    PeerNotReceiving = 6,
};

/** Fixed preamble of every frame. */
struct FrameHeader {
    std::uint32_t magic;
    std::uint16_t version;
    std::uint16_t type;      ///< FrameType
    std::uint32_t body_len;  ///< bytes following the header
    std::uint32_t tuple;     ///< Events: tuple id; otherwise 0
    std::uint64_t seq;       ///< Events: ring sequence of first event
    std::uint32_t count;     ///< Events: events; Credit: entries
    std::uint32_t body_crc;  ///< FNV-1a over the body bytes
};

static_assert(sizeof(FrameHeader) == 32, "header layout is part of the protocol");

/** Geometry + epoch stamp + pool pressure snapshot (Hello body). */
struct HelloBody {
    std::uint32_t num_variants;   ///< variants on the shipping node
    std::uint32_t ring_capacity;  ///< events per tuple ring
    std::uint32_t max_tuples;     ///< compile-time tuple bound
    std::uint32_t num_tuples;     ///< live tuples at snapshot time
    std::uint32_t leader_id;
    std::uint32_t engine_epoch;       ///< election count on the shipper
    std::uint32_t stream_generation;  ///< bumped on cross-node promotion
    std::uint32_t reserved;
    std::uint64_t events_streamed;
    shmem::PoolStats pool;        ///< per-shard carve/free/spill stats
};

/** Receiver identity + reconciliation stamp + resume cursors
 *  (HelloAck body). */
struct HelloAckBody {
    std::uint32_t max_tuples;
    std::uint32_t engine_epoch;       ///< epoch the receiver last adopted
    std::uint32_t stream_generation;  ///< generation it reconciled against
    std::uint32_t reserved;
    std::uint64_t receiver_id;        ///< stable per-receiver identity
    std::uint64_t next_seq[core::kMaxTuples]; ///< next expected ring seq
};

/** One flow-control confirmation (Credit body holds `count` of them). */
struct CreditEntry {
    std::uint32_t tuple;
    std::uint32_t reserved;
    std::uint64_t delivered; ///< ring sequences < delivered have landed
};

/** A decodable link rejection (Error body). `local` is the sender of
 *  the Error frame, `peer` echoes what the rejected side announced. */
struct ErrorBody {
    std::uint32_t code;              ///< WireError
    std::uint32_t reserved;
    std::uint32_t local_epoch;
    std::uint32_t local_generation;
    std::uint32_t peer_epoch;
    std::uint32_t peer_generation;
    std::uint64_t detail;            ///< code-specific (e.g. cursor floor)
};

/** CRC32C over arbitrary bytes — the frame body checksum. */
inline std::uint32_t
bodyChecksum(const void *data, std::size_t len)
{
    return crc32c(data, len);
}

/** Fill the fixed fields of a header. The checksum starts as the
 *  empty-body CRC32C (0), correct as-is for body-less frames; senders
 *  with a body overwrite it with bodyChecksum(). */
inline FrameHeader
makeHeader(FrameType type, std::uint32_t body_len)
{
    FrameHeader h = {};
    h.magic = kFrameMagic;
    h.version = kProtocolVersion;
    h.type = static_cast<std::uint16_t>(type);
    h.body_len = body_len;
    h.body_crc = bodyChecksum(nullptr, 0);
    return h;
}

/**
 * Structural validation of a received header: magic, version, type
 * range, and a sane body length. Returns false on any mismatch — the
 * stream is unrecoverable past a bad header (framing is lost), so the
 * receiver drops the link.
 */
inline bool
headerValid(const FrameHeader &h)
{
    if (h.magic != kFrameMagic || h.version != kProtocolVersion)
        return false;
    if (h.type == 0 ||
        h.type > static_cast<std::uint16_t>(FrameType::Fence))
        return false;
    if (h.body_len > kMaxBodyBytes)
        return false;
    if (h.tuple >= core::kMaxTuples &&
        static_cast<FrameType>(h.type) == FrameType::Events)
        return false;
    return true;
}

/** Wire size of a Status reply: header + serialized StatusReport. */
inline constexpr std::size_t kStatusFrameBytes =
    sizeof(FrameHeader) + sizeof(core::StatusReport);

/** A status *request* is an empty-body Status frame. */
inline FrameHeader
makeStatusRequest()
{
    return makeHeader(FrameType::Status, 0);
}

/** Serialize @p report into a wire-ready Status reply frame. */
inline void
encodeStatusFrame(const core::StatusReport &report,
                  std::uint8_t out[kStatusFrameBytes])
{
    FrameHeader header =
        makeHeader(FrameType::Status, sizeof(core::StatusReport));
    header.body_crc = bodyChecksum(&report, sizeof(report));
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), &report, sizeof(report));
}

/**
 * Decode a Status reply body received with @p header.
 * @return false on type, length or checksum mismatch.
 */
inline bool
decodeStatusFrame(const FrameHeader &header, const void *body,
                  std::size_t body_len, core::StatusReport *out)
{
    if (static_cast<FrameType>(header.type) != FrameType::Status)
        return false;
    if (body_len != sizeof(core::StatusReport) ||
        header.body_len != body_len) {
        return false;
    }
    if (header.body_crc != bodyChecksum(body, body_len))
        return false;
    std::memcpy(out, body, sizeof(core::StatusReport));
    return true;
}

/** Wire size of an Error frame: header + ErrorBody. */
inline constexpr std::size_t kErrorFrameBytes =
    sizeof(FrameHeader) + sizeof(ErrorBody);

/** Serialize a link rejection into a wire-ready Error frame. */
inline void
encodeErrorFrame(const ErrorBody &error, std::uint8_t out[kErrorFrameBytes])
{
    FrameHeader header = makeHeader(FrameType::Error, sizeof(ErrorBody));
    header.body_crc = bodyChecksum(&error, sizeof(error));
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), &error, sizeof(error));
}

/**
 * Decode an Error body received with @p header.
 * @return false on type, length or checksum mismatch.
 */
inline bool
decodeErrorFrame(const FrameHeader &header, const void *body,
                 std::size_t body_len, ErrorBody *out)
{
    if (static_cast<FrameType>(header.type) != FrameType::Error)
        return false;
    if (body_len != sizeof(ErrorBody) || header.body_len != body_len)
        return false;
    if (header.body_crc != bodyChecksum(body, body_len))
        return false;
    std::memcpy(out, body, sizeof(ErrorBody));
    return true;
}

/** Most DivergenceRecords one Divergence frame carries — the ledger
 *  itself only retains kLedgerSlots, so one frame always suffices. */
inline constexpr std::uint32_t kDivergenceFrameMaxRecords =
    static_cast<std::uint32_t>(trace::kLedgerSlots);

/** Wire size of a maximal Divergence frame. */
inline constexpr std::size_t kDivergenceFrameMaxBytes =
    sizeof(FrameHeader) +
    kDivergenceFrameMaxRecords * sizeof(trace::DivergenceRecord);

/**
 * Serialize @p count divergence records into a wire-ready Divergence
 * frame. @p out must hold sizeof(FrameHeader) + count * 56 bytes.
 * @return the frame's total wire size.
 */
inline std::size_t
encodeDivergenceFrame(const trace::DivergenceRecord *records,
                      std::uint32_t count, std::uint8_t *out)
{
    const std::uint32_t body_len = static_cast<std::uint32_t>(
        count * sizeof(trace::DivergenceRecord));
    FrameHeader header = makeHeader(FrameType::Divergence, body_len);
    header.count = count;
    header.body_crc = bodyChecksum(records, body_len);
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), records, body_len);
    return sizeof(header) + body_len;
}

/**
 * Decode a Divergence frame body received with @p header into @p out
 * (capacity @p max records). @return the number of records decoded,
 * or SIZE_MAX on type, length, count or checksum mismatch.
 */
inline std::size_t
decodeDivergenceFrame(const FrameHeader &header, const void *body,
                      std::size_t body_len, trace::DivergenceRecord *out,
                      std::size_t max)
{
    if (static_cast<FrameType>(header.type) != FrameType::Divergence)
        return SIZE_MAX;
    if (header.count > kDivergenceFrameMaxRecords || header.count > max)
        return SIZE_MAX;
    if (body_len != header.count * sizeof(trace::DivergenceRecord) ||
        header.body_len != body_len) {
        return SIZE_MAX;
    }
    if (header.body_crc != bodyChecksum(body, body_len))
        return SIZE_MAX;
    std::memcpy(out, body, body_len);
    return header.count;
}

// --- quorum control plane (v6) ---------------------------------------

/** "No node" sentinel for quorum node ids (LeaseBody::holder_id when
 *  no lease is known). */
inline constexpr std::uint32_t kNoQuorumNode = 0xffffffffu;

/** What a Vote frame means (VoteBody::kind). */
enum class VoteKind : std::uint8_t {
    Request = 0, ///< candidate asks for the lease at `term`
    Grant = 1,   ///< voter promises `term` to the candidate
    Deny = 2,    ///< voter already promised `term`, or a lease is live
};

/** One election round-trip message (Vote body). A candidate sends a
 *  Request carrying the term it wants and the stream generation it
 *  will stamp if elected; each peer answers Grant or Deny with its own
 *  current term in `voter_term` so a losing candidate learns how far
 *  ahead the membership is. */
struct VoteBody {
    std::uint64_t term;         ///< lease term requested / answered
    std::uint32_t node_id;      ///< sender's quorum node id
    std::uint32_t candidate_id; ///< node asking for the lease
    std::uint32_t generation;   ///< generation the candidate will stamp
    std::uint8_t kind;          ///< VoteKind
    std::uint8_t reserved[3];
    std::uint64_t voter_term;   ///< responder's current term (0 on Request)
};

static_assert(sizeof(VoteBody) == 32, "wire-visible layout");

/** Quorum heartbeat + lease announcement (Lease body). Broadcast by
 *  every member on its heartbeat tick; the holder's own heartbeat is
 *  what refreshes the lease fleet-wide. */
struct LeaseBody {
    std::uint64_t term;        ///< current lease term (0 = none known)
    std::uint32_t node_id;     ///< sender's quorum node id
    std::uint32_t holder_id;   ///< believed holder, kNoQuorumNode if none
    std::uint32_t generation;  ///< quorum-stamped stream generation
    std::uint32_t fenced;      ///< sender fenced itself (diagnostics)
    std::uint64_t ttl_ns;      ///< lease validity left, sender's view
};

static_assert(sizeof(LeaseBody) == 32, "wire-visible layout");

/** Why a node was ordered to fence (FenceBody::reason). */
enum class FenceReason : std::uint32_t {
    None = 0,
    /** The target announced holdership of a term older than the live
     *  lease — a healed minority winner stepping on the majority. */
    StaleTerm = 1,
    /** The target lost contact with a quorum of the membership. */
    LostQuorum = 2,
};

/** Authoritative step-aside order (Fence body): sent by a node holding
 *  a quorum-backed lease to a peer still claiming a stale one. The
 *  target stops serving, keeps buffering, and rejoins as a follower
 *  of `term`. */
struct FenceBody {
    std::uint64_t term;       ///< the live lease term the target must adopt
    std::uint32_t node_id;    ///< sender (the quorum-backed holder)
    std::uint32_t target_id;  ///< node being fenced
    std::uint32_t generation; ///< the live quorum-stamped generation
    std::uint32_t reason;     ///< FenceReason
};

static_assert(sizeof(FenceBody) == 24, "wire-visible layout");

inline constexpr std::size_t kVoteFrameBytes =
    sizeof(FrameHeader) + sizeof(VoteBody);
inline constexpr std::size_t kLeaseFrameBytes =
    sizeof(FrameHeader) + sizeof(LeaseBody);
inline constexpr std::size_t kFenceFrameBytes =
    sizeof(FrameHeader) + sizeof(FenceBody);

/** Serialize a quorum Vote message into a wire-ready frame. */
inline void
encodeVoteFrame(const VoteBody &vote, std::uint8_t out[kVoteFrameBytes])
{
    FrameHeader header = makeHeader(FrameType::Vote, sizeof(VoteBody));
    header.body_crc = bodyChecksum(&vote, sizeof(vote));
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), &vote, sizeof(vote));
}

/** Decode a Vote body received with @p header.
 *  @return false on type, length or checksum mismatch. */
inline bool
decodeVoteFrame(const FrameHeader &header, const void *body,
                std::size_t body_len, VoteBody *out)
{
    if (static_cast<FrameType>(header.type) != FrameType::Vote)
        return false;
    if (body_len != sizeof(VoteBody) || header.body_len != body_len)
        return false;
    if (header.body_crc != bodyChecksum(body, body_len))
        return false;
    std::memcpy(out, body, sizeof(VoteBody));
    return true;
}

/** Serialize a quorum heartbeat into a wire-ready Lease frame. */
inline void
encodeLeaseFrame(const LeaseBody &lease, std::uint8_t out[kLeaseFrameBytes])
{
    FrameHeader header = makeHeader(FrameType::Lease, sizeof(LeaseBody));
    header.body_crc = bodyChecksum(&lease, sizeof(lease));
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), &lease, sizeof(lease));
}

/** Decode a Lease body received with @p header.
 *  @return false on type, length or checksum mismatch. */
inline bool
decodeLeaseFrame(const FrameHeader &header, const void *body,
                 std::size_t body_len, LeaseBody *out)
{
    if (static_cast<FrameType>(header.type) != FrameType::Lease)
        return false;
    if (body_len != sizeof(LeaseBody) || header.body_len != body_len)
        return false;
    if (header.body_crc != bodyChecksum(body, body_len))
        return false;
    std::memcpy(out, body, sizeof(LeaseBody));
    return true;
}

/** Serialize a step-aside order into a wire-ready Fence frame. */
inline void
encodeFenceFrame(const FenceBody &fence, std::uint8_t out[kFenceFrameBytes])
{
    FrameHeader header = makeHeader(FrameType::Fence, sizeof(FenceBody));
    header.body_crc = bodyChecksum(&fence, sizeof(fence));
    std::memcpy(out, &header, sizeof(header));
    std::memcpy(out + sizeof(header), &fence, sizeof(fence));
}

/** Decode a Fence body received with @p header.
 *  @return false on type, length or checksum mismatch. */
inline bool
decodeFenceFrame(const FrameHeader &header, const void *body,
                 std::size_t body_len, FenceBody *out)
{
    if (static_cast<FrameType>(header.type) != FrameType::Fence)
        return false;
    if (body_len != sizeof(FenceBody) || header.body_len != body_len)
        return false;
    if (header.body_crc != bodyChecksum(body, body_len))
        return false;
    std::memcpy(out, body, sizeof(FenceBody));
    return true;
}

/**
 * Payload bytes an Events frame body carries after its event array:
 * the sum of payload_size over payload-carrying events.
 */
inline std::size_t
eventsPayloadBytes(const ring::Event *events, std::size_t count)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (events[i].hasPayload())
            total += events[i].payload_size;
    }
    return total;
}

} // namespace varan::wire

#endif // VARAN_WIRE_PROTOCOL_H
