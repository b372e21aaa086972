/**
 * @file
 * The unified live tuning surface of the event path.
 *
 * Every event-path parameter that used to be a static config field —
 * the wire ship batch and credit window — is one Knob backed by an
 * atomic slot in the shared region (TuningBlock, embedded in the
 * ControlBlock). Consumers re-read the live value at batch boundaries
 * instead of caching it at construction, so a knob an operator turns
 * mid-run through Nvx::tuning() takes effect without restarting
 * anything: not the engine, not a reconnecting peer, not a promoted
 * shipper.
 *
 * Every knob has a hard floor and ceiling (kKnobRanges); readers clamp
 * on load, so a torn or hostile shared-memory value can never drive a
 * consumer out of its safe range (see docs/TUNING.md).
 *
 * Seeding is first-writer-wins (the seeded mask): the coordinator
 * seeds all knobs from EngineConfig at start; a component constructed
 * later — a promoted shipper on a receiver node — finds the bit set
 * and adopts the live value instead of clobbering a retuned one with
 * its construction-time options.
 */

#ifndef VARAN_CORE_TUNING_H
#define VARAN_CORE_TUNING_H

#include <atomic>
#include <cstdint>

namespace varan::core {

/** The live-tunable event-path parameters, one per TuningBlock slot. */
enum class Knob : std::uint32_t {
    ShipBatch = 0,    ///< events per wire Events frame
    CreditWindow = 1, ///< max unacked events per tuple per peer
};

inline constexpr std::uint32_t kNumKnobs = 2;

/** Hard floor/ceiling per knob; every read clamps into this range. */
struct KnobRange {
    std::uint64_t floor;
    std::uint64_t ceiling;
};

inline constexpr KnobRange kKnobRanges[kNumKnobs] = {
    {1, 64},               // ShipBatch   (== wire::Shipper::kMaxShipBatch)
    {64, 1u << 20},        // CreditWindow
};

/**
 * Plain seed values for the live knobs — what EngineConfig carries and
 * what seeds the shared TuningBlock at engine start. The defaults are
 * the historical RemoteConfig defaults.
 */
struct Tuning {
    std::uint32_t ship_batch = 16;
    std::uint32_t credit_window = 4096;
};

/**
 * The shared-memory home of the live values. Lives inside the
 * ControlBlock; value-initialised to zero with the rest of it, then
 * given defaults by EngineLayout::create (without marking anything
 * seeded).
 */
struct TuningBlock {
    std::atomic<std::uint64_t> values[kNumKnobs];
    std::atomic<std::uint32_t> seeded_mask; ///< knob has an explicit value
};

inline std::uint64_t
clampKnob(Knob knob, std::uint64_t value)
{
    const KnobRange &range = kKnobRanges[static_cast<std::uint32_t>(knob)];
    if (value < range.floor)
        return range.floor;
    if (value > range.ceiling)
        return range.ceiling;
    return value;
}

/** The live value of a knob, clamped into its hard range. */
inline std::uint64_t
liveKnob(const TuningBlock &block, Knob knob)
{
    return clampKnob(
        knob, block.values[static_cast<std::uint32_t>(knob)].load(
                  std::memory_order_relaxed));
}

/** Write the historical defaults; does NOT mark anything seeded —
 *  layout creation runs this so unseeded knobs still read sane. */
inline void
initTuningDefaults(TuningBlock &block)
{
    const Tuning defaults;
    block.values[static_cast<std::uint32_t>(Knob::ShipBatch)].store(
        defaults.ship_batch, std::memory_order_relaxed);
    block.values[static_cast<std::uint32_t>(Knob::CreditWindow)].store(
        defaults.credit_window, std::memory_order_relaxed);
}

/**
 * First-seeder-wins initialisation: write @p value only if nobody has
 * seeded (or set) this knob yet. A promoted shipper constructed after
 * an operator retuned the node therefore adopts the live value instead
 * of resetting it to its own construction options.
 */
inline void
seedKnob(TuningBlock &block, Knob knob, std::uint64_t value)
{
    const std::uint32_t bit = 1u << static_cast<std::uint32_t>(knob);
    if (block.seeded_mask.fetch_or(bit, std::memory_order_acq_rel) & bit)
        return;
    block.values[static_cast<std::uint32_t>(knob)].store(
        clampKnob(knob, value), std::memory_order_release);
}

inline void
seedTuning(TuningBlock &block, const Tuning &tuning)
{
    seedKnob(block, Knob::ShipBatch, tuning.ship_batch);
    seedKnob(block, Knob::CreditWindow, tuning.credit_window);
}

/**
 * The live tuning API handed out by Nvx::tuning(): get/set any knob
 * while the engine runs. A set value is clamped and marked seeded, so
 * a component constructed later adopts it.
 */
class TuningHandle
{
  public:
    TuningHandle() = default;
    explicit TuningHandle(TuningBlock *block) : block_(block) {}

    bool valid() const { return block_ != nullptr; }

    std::uint64_t get(Knob knob) const { return liveKnob(*block_, knob); }

    void
    set(Knob knob, std::uint64_t value)
    {
        block_->values[static_cast<std::uint32_t>(knob)].store(
            clampKnob(knob, value), std::memory_order_release);
        block_->seeded_mask.fetch_or(
            1u << static_cast<std::uint32_t>(knob),
            std::memory_order_acq_rel);
    }

    /** Point-in-time snapshot of every live value. */
    Tuning
    snapshot() const
    {
        Tuning t;
        t.ship_batch =
            static_cast<std::uint32_t>(get(Knob::ShipBatch));
        t.credit_window =
            static_cast<std::uint32_t>(get(Knob::CreditWindow));
        return t;
    }

    // Typed conveniences for each knob.
    std::uint32_t
    shipBatch() const
    {
        return static_cast<std::uint32_t>(get(Knob::ShipBatch));
    }
    void shipBatch(std::uint32_t v) { set(Knob::ShipBatch, v); }

    std::uint32_t
    creditWindow() const
    {
        return static_cast<std::uint32_t>(get(Knob::CreditWindow));
    }
    void creditWindow(std::uint32_t v) { set(Knob::CreditWindow, v); }

  private:
    TuningBlock *block_ = nullptr;
};

} // namespace varan::core

#endif // VARAN_CORE_TUNING_H
