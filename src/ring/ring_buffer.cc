#include "ring/ring_buffer.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/clock.h"
#include "common/futex.h"

namespace varan::ring {

namespace {

constexpr std::size_t kControlSize =
    (sizeof(RingControl) + kCacheLineSize - 1) & ~(kCacheLineSize - 1);

bool
deadlinePassed(std::uint64_t deadline_ns)
{
    return deadline_ns != 0 && monotonicNs() >= deadline_ns;
}

std::uint64_t
deadlineFor(const WaitSpec &wait)
{
    return wait.timeout_ns == 0 ? 0 : monotonicNs() + wait.timeout_ns;
}

} // namespace

RingBuffer::RingBuffer(const shmem::Region *region, shmem::Offset off)
    : region_(region), off_(off)
{
}

std::size_t
RingBuffer::bytesRequired(std::uint32_t capacity)
{
    return kControlSize + static_cast<std::size_t>(capacity) * sizeof(Event);
}

RingBuffer
RingBuffer::initialize(const shmem::Region *region, shmem::Offset off,
                       std::uint32_t capacity)
{
    VARAN_CHECK(capacity > 0 && (capacity & (capacity - 1)) == 0);
    auto *ctl = new (region->bytesAt(off, sizeof(RingControl))) RingControl();
    ctl->capacity = capacity;
    ctl->mask = capacity - 1;
    ctl->head.store(0, std::memory_order_relaxed);
    ctl->data_seq.store(0, std::memory_order_relaxed);
    ctl->consumers_waiting.store(0, std::memory_order_relaxed);
    ctl->space_seq.store(0, std::memory_order_relaxed);
    ctl->producer_waiting.store(0, std::memory_order_relaxed);
    ctl->attach_bitmap.store(0, std::memory_order_relaxed);
    for (auto &cur : ctl->cursors) {
        cur.seq.store(0, std::memory_order_relaxed);
        cur.active.store(0, std::memory_order_relaxed);
    }
    return RingBuffer(region, off);
}

RingControl *
RingBuffer::control() const
{
    return region_->at<RingControl>(off_);
}

Event *
RingBuffer::slots() const
{
    return static_cast<Event *>(
        region_->bytesAt(off_ + kControlSize,
                         static_cast<std::size_t>(control()->capacity) *
                             sizeof(Event)));
}

std::uint64_t
RingBuffer::gatingSequence(std::uint64_t head) const
{
    RingControl *ctl = control();
    std::uint64_t min_seq = head;
    for (std::uint32_t i = 0; i < kMaxConsumers; ++i) {
        const ConsumerCursor &cur = ctl->cursors[i];
        if (!cur.active.load(std::memory_order_acquire))
            continue;
        std::uint64_t s = cur.seq.load(std::memory_order_acquire);
        if (s < min_seq)
            min_seq = s;
    }
    return min_seq;
}

std::uint64_t
RingBuffer::awaitSpace(std::uint64_t deadline, const WaitSpec &wait,
                       std::uint64_t min_free)
{
    RingControl *ctl = control();
    const std::uint64_t seq = ctl->head.load(std::memory_order_relaxed);
    const std::uint64_t capacity = ctl->capacity;

    // gate_cache_ is a lower bound on every active cursor: cursors only
    // move forward, and armCursor() joins at or above any gate cached
    // by a scan that missed it. While it leaves room, no consumer's
    // cursor line is read at all. A re-initialised ring (head behind
    // the cache) rescans.
    if (gate_cache_ <= seq && seq - gate_cache_ + min_free <= capacity)
        return capacity - (seq - gate_cache_);

    // Gate on the slowest active consumer; followers that crash get
    // deactivated by the coordinator so they stop holding us back.
    auto rescan = [&] {
        // Pairs with armCursor(): a joining consumer either shows up
        // in this scan or reads a head no older than seq.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        gate_cache_ = gatingSequence(seq);
        return seq - gate_cache_;
    };
    std::uint32_t spins = 0;
    for (;;) {
        const std::uint64_t used = rescan();
        if (used + min_free <= capacity)
            return capacity - used;
        if (deadlinePassed(deadline))
            return 0;
        if (wait.busy_only || spins++ < wait.spin_iterations) {
            __builtin_ia32_pause();
            continue;
        }
        // Announce, then re-check (rescan()'s fence orders the two):
        // pairs with the seq_cst cursor store in advanceBy(), so
        // either the re-check sees the consumer's new cursor or the
        // consumer sees the announcement and wakes space_seq.
        ctl->producer_waiting.store(1, std::memory_order_seq_cst);
        const std::uint32_t observed =
            ctl->space_seq.load(std::memory_order_acquire);
        if (rescan() + min_free > capacity)
            futexWait(&ctl->space_seq, observed, 1000000); // 1 ms tick
        ctl->producer_waiting.store(0, std::memory_order_release);
    }
}

bool
RingBuffer::claim(std::size_t count, std::uint64_t *seq_out,
                  const WaitSpec &wait)
{
    RingControl *ctl = control();
    VARAN_CHECK(count >= 1 && count <= ctl->capacity);
    if (awaitSpace(deadlineFor(wait), wait, count) == 0)
        return false;
    if (seq_out)
        *seq_out = ctl->head.load(std::memory_order_relaxed);
    return true;
}

void
RingBuffer::commit(std::span<const Event> events)
{
    RingControl *ctl = control();
    const std::size_t n = events.size();
    const std::uint64_t seq = ctl->head.load(std::memory_order_relaxed);
    const std::uint64_t idx = seq & ctl->mask;
    const std::size_t first = std::min<std::size_t>(n, ctl->capacity - idx);
    std::memcpy(slots() + idx, events.data(), first * sizeof(Event));
    if (n > first)
        std::memcpy(slots(), events.data() + first,
                    (n - first) * sizeof(Event));
    ctl->head.store(seq + n, std::memory_order_release);
    ctl->data_seq.fetch_add(static_cast<std::uint32_t>(n),
                            std::memory_order_release);
    if (ctl->consumers_waiting.load(std::memory_order_seq_cst) > 0)
        futexWake(&ctl->data_seq, kMaxConsumers);
}

std::uint64_t
RingBuffer::headSeq() const
{
    return control()->head.load(std::memory_order_acquire);
}

std::uint32_t
RingBuffer::consumersWaiting() const
{
    return control()->consumers_waiting.load(std::memory_order_acquire);
}

void
RingBuffer::armCursor(int id)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    // Start reading at the current head: a late-attaching consumer must
    // not see stale history. The producer may have cached a gate from a
    // scan that ran before `active` was visible; re-reading head after
    // announcing (paired with the fence before every producer rescan)
    // lands the cursor at or above any such gate.
    cur.seq.store(ctl->head.load(std::memory_order_acquire),
                  std::memory_order_release);
    cur.active.store(1, std::memory_order_seq_cst);
    cur.seq.store(ctl->head.load(std::memory_order_seq_cst),
                  std::memory_order_release);
}

int
RingBuffer::attachConsumer()
{
    RingControl *ctl = control();
    for (std::uint32_t i = 0; i < kMaxConsumers; ++i) {
        std::uint32_t bit = 1u << i;
        std::uint32_t old = ctl->attach_bitmap.fetch_or(
            bit, std::memory_order_acq_rel);
        if (!(old & bit)) {
            armCursor(static_cast<int>(i));
            return static_cast<int>(i);
        }
    }
    return -1;
}

bool
RingBuffer::attachConsumerAt(int id)
{
    RingControl *ctl = control();
    VARAN_CHECK(id >= 0 && id < static_cast<int>(kMaxConsumers));
    std::uint32_t bit = 1u << id;
    std::uint32_t old =
        ctl->attach_bitmap.fetch_or(bit, std::memory_order_acq_rel);
    if (old & bit)
        return false;
    armCursor(id);
    return true;
}

void
RingBuffer::detachConsumer(int id)
{
    RingControl *ctl = control();
    VARAN_CHECK(id >= 0 && id < static_cast<int>(kMaxConsumers));
    ctl->cursors[id].active.store(0, std::memory_order_release);
    ctl->attach_bitmap.fetch_and(~(1u << id), std::memory_order_acq_rel);
    // The producer may be blocked waiting for this consumer's cursor.
    ctl->space_seq.fetch_add(1, std::memory_order_release);
    futexWake(&ctl->space_seq, 1);
}

std::uint64_t
RingBuffer::awaitData(int id, std::uint64_t deadline, const WaitSpec &wait)
{
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    const std::uint64_t c = cur.seq.load(std::memory_order_relaxed);

    std::uint32_t spins = 0;
    for (;;) {
        const std::uint64_t head =
            ctl->head.load(std::memory_order_acquire);
        if (head > c)
            return head - c;
        if (deadlinePassed(deadline))
            return 0;
        if (wait.busy_only || spins++ < wait.spin_iterations) {
            __builtin_ia32_pause();
            continue;
        }
        // Waitlock path (section 3.3.1): sleep until the leader wakes us.
        ctl->consumers_waiting.fetch_add(1, std::memory_order_seq_cst);
        std::uint32_t observed =
            ctl->data_seq.load(std::memory_order_acquire);
        if (ctl->head.load(std::memory_order_acquire) > c) {
            ctl->consumers_waiting.fetch_sub(1, std::memory_order_release);
            continue;
        }
        futexWait(&ctl->data_seq, observed, 1000000); // 1 ms tick
        ctl->consumers_waiting.fetch_sub(1, std::memory_order_release);
    }
}

std::size_t
RingBuffer::peekBatch(int id, Event *out, std::size_t max,
                      const WaitSpec &wait)
{
    if (max == 0)
        return 0;
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    const std::uint64_t c = cur.seq.load(std::memory_order_relaxed);
    const std::uint64_t avail = awaitData(id, deadlineFor(wait), wait);
    if (avail == 0)
        return 0;
    const std::size_t n = std::min<std::size_t>(avail, max);
    const std::uint64_t idx = c & ctl->mask;
    const std::size_t first = std::min<std::size_t>(n, ctl->capacity - idx);
    std::memcpy(out, slots() + idx, first * sizeof(Event));
    if (n > first)
        std::memcpy(out + first, slots(), (n - first) * sizeof(Event));
    // Cursor untouched: the run stays claimed (and any pool payloads it
    // references stay alive) until advanceBy().
    return n;
}

void
RingBuffer::advanceBy(int id, std::size_t n)
{
    if (n == 0)
        return;
    RingControl *ctl = control();
    ConsumerCursor &cur = ctl->cursors[id];
    // seq_cst store + seq_cst load: the consumer half of the producer's
    // announce/re-check in awaitSpace(). Only a producer that announced
    // itself costs this consumer a write to the shared space_seq line.
    cur.seq.store(cur.seq.load(std::memory_order_relaxed) + n,
                  std::memory_order_seq_cst);
    if (ctl->producer_waiting.load(std::memory_order_seq_cst)) {
        ctl->space_seq.fetch_add(1, std::memory_order_release);
        futexWake(&ctl->space_seq, 1);
    }
}

std::uint64_t
RingBuffer::lag(int id) const
{
    RingControl *ctl = control();
    std::uint64_t head = ctl->head.load(std::memory_order_acquire);
    std::uint64_t c = ctl->cursors[id].seq.load(std::memory_order_acquire);
    return head > c ? head - c : 0;
}

bool
RingBuffer::awaitAnyData(std::span<const RingBuffer> rings,
                         std::span<const int> slots,
                         std::uint64_t timeout_ns)
{
    VARAN_CHECK(rings.size() == slots.size() &&
                rings.size() <= kFutexWaitAnyMax);
    if (rings.empty()) {
        sleepNs(timeout_ns);
        return false;
    }
    // awaitData's waitlock, once per ring: announce, then read data_seq,
    // then re-check head. A publish after the head check either bumps
    // data_seq before the sleep (the wait returns at once) or sees the
    // announcement and wakes the word.
    FutexWord words[kFutexWaitAnyMax];
    std::size_t announced = 0;
    bool ready = false;
    while (announced < rings.size() && !ready) {
        RingControl *ctl = rings[announced].control();
        ctl->consumers_waiting.fetch_add(1, std::memory_order_seq_cst);
        words[announced] = {&ctl->data_seq,
                            ctl->data_seq.load(std::memory_order_acquire)};
        ready = rings[announced].lag(slots[announced]) > 0;
        ++announced;
    }
    if (!ready)
        futexWaitAny({words, announced}, timeout_ns);
    for (std::size_t i = 0; i < announced; ++i) {
        rings[i].control()->consumers_waiting.fetch_sub(
            1, std::memory_order_release);
    }
    for (std::size_t i = 0; i < rings.size() && !ready; ++i)
        ready = rings[i].lag(slots[i]) > 0;
    return ready;
}

bool
RingBuffer::consumerActive(int id) const
{
    return control()->cursors[id].active.load(std::memory_order_acquire);
}

} // namespace varan::ring
