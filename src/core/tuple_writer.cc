#include "core/tuple_writer.h"

namespace varan::core {

bool
activateTuple(ControlBlock *cb, std::uint64_t t)
{
    if (t >= kMaxTuples)
        return false;
    const auto id = static_cast<std::uint32_t>(t);
    std::uint32_t current = cb->num_tuples.load(std::memory_order_acquire);
    while (current <= id &&
           !cb->num_tuples.compare_exchange_weak(
               current, id + 1, std::memory_order_acq_rel)) {
    }
    cb->tuples[id].active.store(1, std::memory_order_release);
    return true;
}

TupleWriter::TupleWriter(const shmem::Region *region,
                         const EngineLayout &layout, std::uint32_t tuple)
    : ring_(layout.tupleRing(region, tuple)),
      shadow_(layout.tupleShadow(region, tuple)),
      pool_(layout.pool(region)),
      streamed_(&layout.controlBlock(region)->events_streamed),
      capacity_(layout.controlBlock(region)->ring_capacity)
{
}

} // namespace varan::core
