/**
 * @file
 * Live tuning tests: the Tuning surface (clamping, set/snapshot,
 * first-seeder-wins seeding), live knob re-reads by the wire shipper
 * mid-run (no restart), the promoted-shipper
 * knob-adoption regression, the unsolicited Status push, and the
 * engine-level guarantee: a Tuning write through Nvx::tuning() is
 * visible in the very next StatusReport and statusText().
 */

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/nvx.h"
#include "core/status.h"
#include "core/tuning.h"
#include "ring/ring_buffer.h"
#include "shmem/region.h"
#include "syscalls/sys.h"
#include "wire/receiver.h"
#include "wire/shipper.h"

namespace varan {
namespace {

using core::Knob;
using core::Tuning;
using core::TuningBlock;
using core::TuningHandle;

// ---------------------------------------------------------------- Tuning

TEST(TuningTest, ClampEnforcesFloorsAndCeilings)
{
    EXPECT_EQ(core::clampKnob(Knob::ShipBatch, 0), 1u);
    EXPECT_EQ(core::clampKnob(Knob::ShipBatch, 1000), 64u);
    EXPECT_EQ(core::clampKnob(Knob::CreditWindow, 1), 64u);
    EXPECT_EQ(core::clampKnob(Knob::CreditWindow, ~0ULL), 1u << 20);
}

TEST(TuningTest, HandleSetClampsAndSnapshots)
{
    TuningBlock block = {};
    core::initTuningDefaults(block);
    TuningHandle handle(&block);
    ASSERT_TRUE(handle.valid());

    EXPECT_EQ(handle.shipBatch(), Tuning{}.ship_batch);

    handle.set(Knob::ShipBatch, 1000); // clamped to the ceiling
    EXPECT_EQ(handle.get(Knob::ShipBatch), 64u);
    handle.creditWindow(1024);

    Tuning snap = handle.snapshot();
    EXPECT_EQ(snap.ship_batch, 64u);
    EXPECT_EQ(snap.credit_window, 1024u);
}

TEST(TuningTest, SeedingIsFirstWriterWins)
{
    TuningBlock block = {};
    core::initTuningDefaults(block);

    // initTuningDefaults leaves the seeded mask clear: the first
    // seeder owns the knob ...
    core::seedKnob(block, Knob::ShipBatch, 32);
    EXPECT_EQ(core::liveKnob(block, Knob::ShipBatch), 32u);
    // ... and a later seeder (a component constructed afterwards with
    // stale Options) must not clobber it.
    core::seedKnob(block, Knob::ShipBatch, 1);
    EXPECT_EQ(core::liveKnob(block, Knob::ShipBatch), 32u);

    // An explicit set() always wins over prior seeding.
    TuningHandle(&block).set(Knob::ShipBatch, 8);
    EXPECT_EQ(core::liveKnob(block, Knob::ShipBatch), 8u);
}

// ------------------------------------------- live knob consumers (wire)

/** A 1-variant shared layout; the test fakes the workload by
 *  publishing into its rings directly. */
struct FakeEngine {
    shmem::Region region;
    core::EngineLayout layout;

    FakeEngine()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, 0, 64);
    }

    core::ControlBlock *cb() { return layout.controlBlock(&region); }
};

ring::Event
syscallEvent(std::uint64_t timestamp, std::uint16_t nr,
             std::int64_t result)
{
    ring::Event event = {};
    event.type = ring::EventType::Syscall;
    event.timestamp = timestamp;
    event.nr = nr;
    event.result = result;
    return event;
}

/** Publish @p count payload-free events into tuple 0 of @p engine. */
void
publishEvents(FakeEngine &engine, std::size_t count)
{
    ring::RingBuffer ring = engine.layout.tupleRing(&engine.region, 0);
    static std::uint64_t ts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        ring::Event event = syscallEvent(++ts, 39, 4242);
        std::uint64_t seq = 0;
        ASSERT_TRUE(ring.claim(1, &seq, {}));
        ring.commit({&event, 1});
    }
}

struct FakeRemote {
    shmem::Region region;
    core::EngineLayout layout;

    FakeRemote()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, core::kNoLeader,
                                            64);
    }
};

TEST(TuningWireTest, ShipperObservesLiveShipBatchMidRun)
{
    FakeEngine leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    wire::Shipper::Options options;
    options.ship_batch = 4;
    wire::Shipper shipper(&leader.region, &leader.layout, options);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    wire::Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    publishEvents(leader, 20);
    // Seeded batch: one drain pass moves 4 events.
    EXPECT_EQ(shipper.pumpOnce(), 4u);

    // Retune mid-run — no restart, no reconnect: the next pass is
    // already running at the new batch.
    TuningHandle handle(&leader.cb()->tuning);
    handle.set(Knob::ShipBatch, 16);
    EXPECT_EQ(shipper.pumpOnce(), 16u);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(TuningWireTest, PromotedShipperAdoptsRetunedKnobs)
{
    // Regression for the construction-time caching bug: a shipper
    // stood up *after* a live retune (promotion, reconnect) used to
    // reset the batch to its constructor Options. Seeding is
    // first-writer-wins, so the retuned value must survive.
    FakeEngine leader;
    TuningHandle handle(&leader.cb()->tuning);
    handle.set(Knob::ShipBatch, 32);
    handle.set(Knob::CreditWindow, 256);

    wire::Shipper::Options stale;
    stale.ship_batch = 1; // what a config file from before the retune says
    stale.credit_window = 4096;
    wire::Shipper shipper(&leader.region, &leader.layout, stale);
    ASSERT_TRUE(shipper.attachTaps().isOk());

    EXPECT_EQ(handle.get(Knob::ShipBatch), 32u);
    EXPECT_EQ(handle.get(Knob::CreditWindow), 256u);

    // And the adopted values are what actually drive the drain.
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    wire::Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    publishEvents(leader, 40);
    EXPECT_EQ(shipper.pumpOnce(), 32u);

    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(TuningWireTest, UnsolicitedStatusPushArrives)
{
    FakeEngine leader;
    FakeRemote remote;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    wire::Shipper::Options options;
    options.status_push_ns = 1; // every pump pass pushes
    wire::Shipper shipper(&leader.region, &leader.layout, options);
    ASSERT_TRUE(shipper.attachTaps().isOk());
    wire::Receiver receiver(&remote.region, &remote.layout);
    std::thread adopting(
        [&] { ASSERT_TRUE(receiver.adopt(sv[1]).isOk()); });
    ASSERT_TRUE(shipper.handshake(sv[0]).isOk());
    adopting.join();

    // The receiver never asked for anything — the report just arrives.
    shipper.pumpOnce();
    core::StatusReport report = {};
    const std::uint64_t deadline = monotonicNs() + 5000000000ULL;
    while (!receiver.remoteStatus(&report) && monotonicNs() < deadline) {
        receiver.serveOnce(100);
        sleepNs(1000000);
    }
    ASSERT_TRUE(receiver.remoteStatus(&report));
    EXPECT_EQ(report.num_variants, 1u);
    EXPECT_GE(shipper.stats().status_pushes, 1u);
    // The push carries the live knob values of the sending engine.
    EXPECT_EQ(report.tuning.ship_batch, 16u);

    ::close(sv[0]);
    ::close(sv[1]);
}

// ------------------------------------------------------------ statusText

TEST(StatusTextTest, RendersLiveKnobs)
{
    core::StatusReport report = {};
    report.num_variants = 2;
    report.tuning.ship_batch = 24;
    report.tuning.credit_window = 2048;
    report.variants[0].syscalls = 11;
    report.variants[1].syscalls = 13;

    const std::string text = core::statusText(report);
    EXPECT_NE(text.find("# TYPE varan_tuning_ship_batch gauge"),
              std::string::npos);
    EXPECT_NE(text.find("varan_tuning_ship_batch 24"), std::string::npos);
    EXPECT_NE(text.find("varan_tuning_credit_window 2048"),
              std::string::npos);
    EXPECT_NE(text.find("varan_variant_syscalls_total{variant=\"1\"} 13"),
              std::string::npos);
}

// ------------------------------------------------------- engine-level

core::EngineConfig
fastConfig()
{
    core::EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 10000000000ULL;
    return config;
}

TEST(TuningEngineTest, LiveTuningVisibleInStatusWithoutRestart)
{
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    core::Nvx nvx(fastConfig());
    auto app = [gate]() -> int {
        char go = 0;
        return sys::vread(gate[0], &go, 1) == 1 ? 0 : 9;
    };
    ASSERT_TRUE(nvx.start({app}).isOk());

    // Retune the running engine through the unified handle ...
    TuningHandle handle = nvx.tuning();
    ASSERT_TRUE(handle.valid());
    handle.set(Knob::ShipBatch, 32);
    handle.set(Knob::CreditWindow, 512);

    // ... and the very next StatusReport shows the new values while the
    // variant is still running — no restart.
    core::StatusReport report = nvx.status();
    EXPECT_EQ(report.tuning.ship_batch, 32u);
    EXPECT_EQ(report.tuning.credit_window, 512u);
    const std::string text = nvx.statusText();
    EXPECT_NE(text.find("varan_tuning_ship_batch 32"), std::string::npos);
    EXPECT_NE(text.find("varan_tuning_credit_window 512"),
              std::string::npos);

    ASSERT_EQ(::write(gate[1], "g", 1), 1);
    auto results = nvx.wait();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, 0);
    ::close(gate[0]);
    ::close(gate[1]);
}

TEST(TuningEngineTest, TuningStructSeedsTheLiveKnobs)
{
    // The unified Tuning struct is the only knob surface (the legacy
    // RemoteConfig spellings are gone): values set there are what the
    // engine actually runs with.
    core::EngineConfig config = fastConfig();
    config.tuning.credit_window = 1024;
    config.tuning.ship_batch = 8;

    core::Nvx nvx(config);
    auto results = nvx.run({[]() -> int { return 0; }});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, 0);
    core::StatusReport report = nvx.status();
    EXPECT_EQ(report.tuning.credit_window, 1024u);
    EXPECT_EQ(report.tuning.ship_batch, 8u);
}

} // namespace
} // namespace varan
