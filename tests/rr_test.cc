/**
 * @file
 * Record-replay tests (section 5.4): the recorder follower persists
 * the event stream losslessly; the replayer drives fresh followers
 * from the log; the in-band (Scribe-like) baseline logs synchronously.
 *
 * The crash-consistency suite exercises log format v2: a recording
 * node whose leader link is severed mid-stream (a scripted FaultLink
 * cut — reproducible, unlike the SIGKILL race it replaced) leaves a
 * log whose valid prefix replays in full, write failures surface
 * through finish() instead of silently corrupting the log, and
 * version/checksum validation rejects garbage with decodable errors.
 */

#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/nvx.h"
#include "harness/faultlink.h"
#include "netio/socketio.h"
#include "ring/ring_buffer.h"
#include "rr/log.h"
#include "rr/recorder.h"
#include "rr/replayer.h"
#include "shmem/region.h"
#include "syscalls/sys.h"
#include "wire/receiver.h"

namespace varan::rr {
namespace {

core::EngineConfig
engineConfig()
{
    core::EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 15000000000ULL;
    return config;
}

std::string
tempLogPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/varan-rr-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter.fetch_add(1)) + ".log";
}

ring::Event
getpidEvent(std::uint64_t timestamp)
{
    ring::Event event = {};
    event.type = ring::EventType::Syscall;
    event.nr = SYS_getpid;
    event.timestamp = timestamp;
    event.result = 4242;
    return event;
}

TEST(RecorderTest, CapturesEveryEvent)
{
    std::string path = tempLogPath();
    core::Nvx nvx(engineConfig());
    Recorder recorder(nvx.region(), &nvx.layout(), path);

    auto app = []() -> int {
        for (int i = 0; i < 25; ++i)
            sys::vgetpid();
        return 0;
    };
    ASSERT_TRUE(nvx.start({app}, [&](core::Nvx &) {
                       ASSERT_TRUE(recorder.attachTaps().isOk());
                       recorder.startDraining();
                   })
                    .isOk());
    nvx.wait();
    auto stats = recorder.finish();
    ASSERT_TRUE(stats.ok());
    // 25 getpids + 1 exit event.
    EXPECT_EQ(stats.value().events, 26u);
    EXPECT_EQ(stats.value().write_errno, 0);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().version, kLogVersion);
    EXPECT_FALSE(log.value().truncated);
    const auto &records = log.value().records;
    ASSERT_EQ(records.size(), 26u);
    for (std::size_t i = 0; i + 1 < records.size(); ++i) {
        EXPECT_EQ(records[i].event.nr, SYS_getpid);
        EXPECT_EQ(records[i].event.timestamp, i + 1);
    }
    EXPECT_EQ(records.back().event.type, ring::EventType::Exit);
    ::unlink(path.c_str());
}

TEST(RecorderTest, CapturesPayloads)
{
    std::string path = tempLogPath();
    char file_path[] = "/tmp/varan-rr-data-XXXXXX";
    int tmp = ::mkstemp(file_path);
    ASSERT_GE(tmp, 0);
    ASSERT_EQ(::write(tmp, "payload!", 8), 8);
    ::close(tmp);

    core::Nvx nvx(engineConfig());
    Recorder recorder(nvx.region(), &nvx.layout(), path);
    std::string fname(file_path);
    auto app = [fname]() -> int {
        long fd = sys::vopen(fname.c_str(), O_RDONLY);
        char buf[16] = {};
        sys::vread(static_cast<int>(fd), buf, sizeof(buf));
        sys::vclose(static_cast<int>(fd));
        return 0;
    };
    ASSERT_TRUE(nvx.start({app}, [&](core::Nvx &) {
                       ASSERT_TRUE(recorder.attachTaps().isOk());
                       recorder.startDraining();
                   })
                    .isOk());
    nvx.wait();
    auto stats = recorder.finish();
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats.value().payload_bytes, 0u);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    bool found_read = false;
    for (const auto &rec : log.value().records) {
        if (rec.event.nr == SYS_read &&
            rec.event.type == ring::EventType::Syscall) {
            found_read = true;
            // Payload wire format: u32 chunk length, then the bytes.
            ASSERT_GE(rec.payload.size(), 4u + 8u);
            EXPECT_EQ(std::string(reinterpret_cast<const char *>(
                                      rec.payload.data() + 4),
                                  8),
                      "payload!");
        }
    }
    EXPECT_TRUE(found_read);
    ::unlink(path.c_str());
    ::unlink(file_path);
}

TEST(RecorderTest, WriteFailureSurfacesInFinish)
{
    std::string path = tempLogPath();
    core::Nvx nvx(engineConfig());
    Recorder recorder(nvx.region(), &nvx.layout(), path);

    auto app = []() -> int {
        // 200 records at 80 bytes apiece blow well past the 4 KiB
        // file-size limit imposed below.
        for (int i = 0; i < 200; ++i)
            sys::vgetpid();
        return 0;
    };

    struct rlimit old_limit = {};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    auto old_handler = ::signal(SIGXFSZ, SIG_IGN);

    // The shared region's ftruncate() must run before the limit drops,
    // so the limit is lowered inside the pre-spawn hook — after
    // attachTaps() wrote the log header, before any record does.
    ASSERT_TRUE(nvx.start({app}, [&](core::Nvx &) {
                       ASSERT_TRUE(recorder.attachTaps().isOk());
                       struct rlimit lim = old_limit;
                       lim.rlim_cur = 4096;
                       ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lim), 0);
                       recorder.startDraining();
                   })
                    .isOk());
    nvx.wait();
    auto stats = recorder.finish();
    ::setrlimit(RLIMIT_FSIZE, &old_limit);
    ::signal(SIGXFSZ, old_handler);

    // finish() must report the failure, not success over a torn log.
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().code, EFBIG);
    EXPECT_EQ(recorder.stats().write_errno, EFBIG);
    // ...and the error is mirrored into the coordinator status report.
    EXPECT_EQ(nvx.status().recorder.write_errno, EFBIG);

    // Whatever landed before the failure is still a valid prefix.
    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    for (std::size_t i = 0; i < log.value().records.size(); ++i)
        EXPECT_EQ(log.value().records[i].event.timestamp, i + 1);
    ::unlink(path.c_str());
}

TEST(RecorderTest, AttachFailureUnlinksLog)
{
    std::string path = tempLogPath();
    core::Nvx nvx(engineConfig());
    Recorder recorder(nvx.region(), &nvx.layout(), path);

    auto app = []() -> int { return 0; };
    ASSERT_TRUE(
        nvx.start({app},
                  [&](core::Nvx &engine) {
                      // Occupy every tap slot on tuple 0 so attachTaps
                      // has nowhere to claim a cursor.
                      ring::RingBuffer ring = engine.layout().tupleRing(
                          engine.region(), 0);
                      for (int slot = core::kTapConsumerSlot;
                           slot < static_cast<int>(ring::kMaxConsumers);
                           ++slot)
                          ASSERT_TRUE(ring.attachConsumerAt(slot));

                      Status attached = recorder.attachTaps();
                      ASSERT_FALSE(attached.isOk());
                      EXPECT_EQ(attached.error().code, EBUSY);
                      // The partially written log (header only) must
                      // not be left behind.
                      EXPECT_NE(::access(path.c_str(), F_OK), 0);

                      for (int slot = core::kTapConsumerSlot;
                           slot < static_cast<int>(ring::kMaxConsumers);
                           ++slot)
                          ring.detachConsumer(slot);
                  })
            .isOk());
    nvx.wait();
}

TEST(RecorderTest, LinkCutMidStreamLeavesReplayablePrefix)
{
    // The crash-consistency scenario, retrofitted onto FaultLink: the
    // recording node is a wire receiver (record_path) whose leader
    // link is severed by a *script* — at the 40th Events frame, a
    // frame boundary — instead of SIGKILLing a recorder process and
    // racing its file writes. Same property, reproducible schedule:
    // whatever prefix was delivered must parse and replay in full.
    std::string path = tempLogPath();
    ::unlink(path.c_str());

    const std::string ep = "varan-rr-cut-" + std::to_string(::getpid());
    auto listening = netio::listenAbstract(ep);
    ASSERT_TRUE(listening.ok());

    core::EngineConfig config = engineConfig();
    config.remote.endpoints = {ep};
    config.tuning.ship_batch = 4;
    // The run outlives the cut: with the sole peer gone, the drain
    // gates at acked + credit_window, so the window must cover the
    // whole stream or the leader wedges on ring backpressure.
    config.tuning.credit_window = 65536;
    core::Nvx nvx(config);
    auto app = []() -> int {
        struct timespec tick = {0, 500000}; // 0.5 ms
        for (int i = 0; i < 4000; ++i) {
            sys::vgetpid();
            if (i % 8 == 0)
                sys::vnanosleep(&tick, nullptr);
        }
        return 0;
    };
    // The recording node: an external-leader region whose pre-attached
    // cursor is detached so publishing never gates on a consumer.
    auto created = shmem::Region::create(8 << 20);
    ASSERT_TRUE(created.ok());
    shmem::Region record_region = std::move(created.value());
    core::EngineLayout record_layout =
        core::EngineLayout::create(&record_region, 1, core::kNoLeader, 64);
    record_layout.tupleRing(&record_region, 0).detachConsumer(0);
    wire::Receiver::Options opts;
    opts.record_path = path;
    wire::Receiver receiver(&record_region, &record_layout, opts);

    // The engine's start blocks on the shipper handshake, so the
    // accept + adopt side runs concurrently — as a real remote node
    // would.
    std::unique_ptr<varan::testing::FaultLink> link;
    std::thread accepting([&] {
        if (!netio::waitReadable(static_cast<int>(listening.value()),
                                 15000))
            return;
        long conn = netio::acceptConnection(
            static_cast<int>(listening.value()), false);
        if (conn < 0)
            return;
        link = std::make_unique<varan::testing::FaultLink>(
            static_cast<int>(conn));
        varan::testing::FaultLink::Rule cut;
        cut.dir = varan::testing::FaultLink::Dir::AtoB;
        cut.type = wire::FrameType::Events;
        cut.skip = 39; // the 40th Events frame severs the link
        cut.count = 1;
        cut.action = varan::testing::FaultLink::Action::Cut;
        link->script(cut);
        if (receiver.adopt(link->releaseB()).isOk())
            receiver.start();
    });
    ASSERT_TRUE(nvx.start({app}).isOk());
    accepting.join();
    ASSERT_NE(link, nullptr);

    // The script fires mid-stream, on schedule, without us timing
    // anything; the leader engine finishes its run regardless.
    std::uint64_t deadline = monotonicNs() + 30000000000ULL;
    while (!link->isCut() && monotonicNs() < deadline)
        sleepNs(1000000);
    ASSERT_TRUE(link->isCut());
    auto results = nvx.waitFor(30000000000ULL);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].crashed);
    ASSERT_TRUE(receiver.finish().isOk());
    EXPECT_EQ(receiver.stats().log_errno, 0);

    // Cut or not, the log must parse to a valid prefix — a whole-log
    // EPROTO here is exactly the bug v2 fixes.
    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    const auto &records = log.value().records;
    ASSERT_GE(records.size(), 32u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_TRUE(records[i].event.nr == SYS_getpid ||
                    records[i].event.nr == SYS_nanosleep);
        EXPECT_EQ(records[i].event.timestamp, i + 1); // no holes
    }

    // ...and that prefix replays in full through the streaming reader.
    auto replay_created = shmem::Region::create(8 << 20);
    ASSERT_TRUE(replay_created.ok());
    shmem::Region region = std::move(replay_created.value());
    core::EngineLayout layout =
        core::EngineLayout::create(&region, 1, 0, 64);
    // No follower in this harness: detach the pre-attached cursor so
    // publishing never gates.
    layout.tupleRing(&region, 0).detachConsumer(0);

    Replayer replayer(&region, &layout, path);
    auto stats = replayer.replayAll();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().events, records.size());
    EXPECT_EQ(stats.value().truncated, log.value().truncated);
    ::unlink(path.c_str());
}

TEST(ReplayTest, RecordThenReplayDrivesFollowers)
{
    std::string path = tempLogPath();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    auto app = [fds]() -> int {
        // A little of everything: identity, time, I/O.
        long pid = sys::vgetpid();
        sys::vwrite(fds[1], "live", 4);
        long t = 0;
        sys::vtime(&t);
        return static_cast<int>((pid ^ t) & 0x3f);
    };

    int live_status = 0;
    {
        // Phase 1: record a live run.
        core::Nvx nvx(engineConfig());
        Recorder recorder(nvx.region(), &nvx.layout(), path);
        ASSERT_TRUE(nvx.start({app}, [&](core::Nvx &) {
                           ASSERT_TRUE(recorder.attachTaps().isOk());
                           recorder.startDraining();
                       })
                        .isOk());
        auto results = nvx.wait();
        ASSERT_TRUE(recorder.finish().ok());
        live_status = results[0].status;
        char buf[8] = {};
        EXPECT_EQ(::read(fds[0], buf, 4), 4);
        EXPECT_STREQ(buf, "live");
    }

    {
        // Phase 2: replay against two followers at once ("replay
        // multiple versions at once", section 5.4).
        core::EngineConfig config = engineConfig();
        config.external_leader = true;
        core::Nvx nvx(config);
        ASSERT_TRUE(nvx.start({app, app}).isOk());
        Replayer replayer(nvx.region(), &nvx.layout(), path);
        auto stats = replayer.replayAll();
        ASSERT_TRUE(stats.ok());
        EXPECT_GE(stats.value().events, 4u);
        EXPECT_FALSE(stats.value().truncated);
        auto results = nvx.waitFor(30000000000ULL);
        for (const auto &r : results) {
            EXPECT_FALSE(r.crashed);
            // Replayed run reproduces the recorded results bit for
            // bit, including the exit status derived from pid ^ time.
            EXPECT_EQ(r.status, live_status);
        }
        // Replay must not have written to the pipe again.
        char buf[8];
        struct timeval tv = {0, 100000};
        fd_set set;
        FD_ZERO(&set);
        FD_SET(fds[0], &set);
        int ready = ::select(fds[0] + 1, &set, nullptr, nullptr, &tv);
        EXPECT_EQ(ready, 0) << ::read(fds[0], buf, 8);
    }
    ::close(fds[0]);
    ::close(fds[1]);
    ::unlink(path.c_str());
}

TEST(ReplayTest, PreCrc32cLogsReplayWritesUnchecked)
{
    // A v2 recorder stamped write events with an FNV-1a content hash
    // (the same function as the record checksum). Replaying such a log
    // must not read as a divergence under CRC32C content hashing; the
    // same bytes declared v3 are checked, and fail.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    auto app = [fds]() -> int {
        sys::vwrite(fds[1], "hello", 5);
        return 0;
    };
    ring::Event write = {};
    write.type = ring::EventType::Syscall;
    write.nr = SYS_write;
    write.timestamp = 1;
    write.result = 5;
    write.flags = ring::kDataHash;
    write.payload = logChecksum("hello", 5);
    write.payload_size = 5;
    ring::Event exit = {};
    exit.type = ring::EventType::Exit;
    exit.nr = SYS_exit_group;
    exit.timestamp = 2;

    for (std::uint32_t version : {2u, 3u}) {
        SCOPED_TRACE("log format v" + std::to_string(version));
        std::string path = tempLogPath();
        LogHeader header = {};
        std::memcpy(header.magic, kLogMagic, sizeof(header.magic));
        header.version = version;
        std::vector<std::uint8_t> bytes(
            reinterpret_cast<const std::uint8_t *>(&header),
            reinterpret_cast<const std::uint8_t *>(&header + 1));
        appendRecord(bytes, 0, write, nullptr, 0);
        appendRecord(bytes, 0, exit, nullptr, 0);
        FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);

        core::EngineConfig config = engineConfig();
        config.external_leader = true;
        core::Nvx nvx(config);
        ASSERT_TRUE(nvx.start({app}).isOk());
        Replayer replayer(nvx.region(), &nvx.layout(), path);
        ASSERT_TRUE(replayer.replayAll().ok());
        auto results = nvx.waitFor(30000000000ULL);
        ASSERT_EQ(results.size(), 1u);
        if (version < kCrc32cContentHashVersion) {
            EXPECT_FALSE(results[0].crashed);
            EXPECT_EQ(results[0].status, 0);
            EXPECT_EQ(nvx.divergencesFatal(), 0u);
        } else {
            EXPECT_TRUE(results[0].crashed);
            EXPECT_EQ(nvx.divergencesFatal(), 1u);
        }
        ::unlink(path.c_str());
    }
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ReplayTest, ReplayIntoRestart)
{
    std::string path = tempLogPath();
    std::string flag =
        "/tmp/varan-rr-flag-" + std::to_string(::getpid());
    ::unlink(flag.c_str());

    {
        // Phase 1: record a clean 20-call run exiting with status 7.
        auto app = []() -> int {
            for (int i = 0; i < 20; ++i)
                sys::vgetpid();
            return 7;
        };
        core::Nvx nvx(engineConfig());
        Recorder recorder(nvx.region(), &nvx.layout(), path);
        ASSERT_TRUE(nvx.start({app}, [&](core::Nvx &) {
                           ASSERT_TRUE(recorder.attachTaps().isOk());
                           recorder.startDraining();
                       })
                        .isOk());
        nvx.wait();
        ASSERT_TRUE(recorder.finish().ok());
    }

    // Phase 2: replay into a variant whose first incarnation crashes
    // after 5 calls. The restart policy respawns it; the replayer
    // quiesces inside on_restart, waits for the respawn's cursors to
    // re-arm, rewinds, and feeds the recorded prefix again from the
    // top (replay-into-restart).
    std::atomic<bool> quiesce{false};
    std::atomic<bool> parked{false};
    std::atomic<bool> done{false};

    // The incarnation flag crosses process respawns through the
    // filesystem with raw libc calls — invisible to the engine.
    auto restartable = [flag]() -> int {
        const bool respawned = ::access(flag.c_str(), F_OK) == 0;
        if (!respawned) {
            ::close(::open(flag.c_str(), O_CREAT | O_WRONLY, 0644));
            for (int i = 0; i < 5; ++i)
                sys::vgetpid();
            *reinterpret_cast<volatile int *>(0) = 1; // deliberate crash
        }
        for (int i = 0; i < 20; ++i)
            sys::vgetpid();
        return 7;
    };

    auto nvx =
        core::Nvx::Builder()
            .externalLeader(true)
            .shmBytes(16 << 20)
            .ringCapacity(64)
            .progressTimeoutNs(15000000000ULL)
            .onRestart([&](std::uint32_t, std::uint32_t) {
                quiesce.store(true, std::memory_order_release);
                for (int i = 0; i < 15000 &&
                                !parked.load(std::memory_order_acquire);
                     ++i)
                    ::usleep(1000);
            })
            .variant(core::VariantSpec(restartable)
                         .named("restartable")
                         .as(core::VariantRole::FollowerOnly)
                         .restartOn(core::RestartPolicy::OnCrash))
            .build();
    ASSERT_TRUE(nvx->start().isOk());

    Replayer replayer(nvx->region(), &nvx->layout(), path);
    std::thread replay_thread([&] {
        ASSERT_TRUE(replayer.open().isOk());
        // Pass 1: feed the log until the crash forces a quiesce.
        while (!quiesce.load(std::memory_order_acquire) &&
               !done.load(std::memory_order_acquire)) {
            auto n = replayer.replayChunk(4);
            if (!n.ok())
                break;
            if (n.value() == 0)
                ::usleep(1000);
        }
        parked.store(true, std::memory_order_release);
        // Resume strictly after restartVariant re-armed the cursors
        // (the restarts counter increments last).
        while (!done.load(std::memory_order_acquire) &&
               nvx->status().variants[0].restarts == 0)
            ::usleep(1000);
        if (done.load(std::memory_order_acquire))
            return;
        ASSERT_TRUE(replayer.rewind().isOk());
        ASSERT_TRUE(replayer.replayAll().ok());
    });

    auto results = nvx->waitFor(30000000000ULL);
    done.store(true, std::memory_order_release);
    quiesce.store(true, std::memory_order_release);
    replay_thread.join();

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, 7);
    EXPECT_EQ(results[0].restarts, 1u);
    EXPECT_GE(replayer.stats().passes, 1u);
    ::unlink(path.c_str());
    ::unlink(flag.c_str());
}

TEST(InBandRecorderTest, LogsSynchronously)
{
    std::string path = tempLogPath();
    {
        InBandRecorder recorder(path);
        sys::setDispatcher(&recorder);
        sys::vgetpid();
        long t = 0;
        sys::vtime(&t);
        sys::setDispatcher(nullptr);
        EXPECT_EQ(recorder.eventsLogged(), 2u);
        EXPECT_EQ(recorder.writeErrno(), 0);
    }
    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    ASSERT_EQ(log.value().records.size(), 2u);
    EXPECT_EQ(log.value().records[0].event.nr, SYS_getpid);
    EXPECT_EQ(log.value().records[1].event.nr, SYS_time);
    ::unlink(path.c_str());
}

TEST(InBandRecorderTest, SurfacesWriteFailure)
{
    std::string path = tempLogPath();
    struct rlimit old_limit = {};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    auto old_handler = ::signal(SIGXFSZ, SIG_IGN);
    {
        // The header (written by the constructor) fits the limit;
        // every record append after it must fail with EFBIG.
        InBandRecorder recorder(path);
        struct rlimit lim = old_limit;
        lim.rlim_cur = sizeof(LogHeader);
        ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lim), 0);
        sys::setDispatcher(&recorder);
        long pid = sys::vgetpid();
        sys::setDispatcher(nullptr);
        ::setrlimit(RLIMIT_FSIZE, &old_limit);

        EXPECT_GT(pid, 0); // the syscall itself still executes
        EXPECT_EQ(recorder.writeErrno(), EFBIG);
        EXPECT_EQ(recorder.eventsLogged(), 0u);
    }
    ::signal(SIGXFSZ, old_handler);
    ::unlink(path.c_str());
}

TEST(LogTest, RejectsCorruptHeader)
{
    std::string path = tempLogPath();
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("garbage!", 1, 8, f);
    std::fclose(f);
    auto log = readLog(path);
    ASSERT_FALSE(log.ok());
    EXPECT_EQ(log.error().code, EPROTO);
    ::unlink(path.c_str());
}

TEST(LogTest, RejectsUnknownVersion)
{
    std::string path = tempLogPath();
    LogHeader header = {};
    std::memcpy(header.magic, kLogMagic, sizeof(header.magic));
    header.version = 99;
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_EQ(std::fwrite(&header, 1, sizeof(header), f),
              sizeof(header));
    std::fclose(f);

    // A future (or corrupt) version must be rejected decodably — not
    // parsed as v1/v2 garbage, not reported as a protocol error.
    auto log = readLog(path);
    ASSERT_FALSE(log.ok());
    EXPECT_EQ(log.error().code, ENOTSUP);
    ::unlink(path.c_str());
}

TEST(LogTest, MissingFileErrors)
{
    auto log = readLog("/tmp/varan-definitely-missing.log");
    ASSERT_FALSE(log.ok());
    EXPECT_EQ(log.error().code, ENOENT);
}

TEST(LogTest, TornTailYieldsValidPrefix)
{
    std::string path = tempLogPath();
    {
        LogWriter writer;
        ASSERT_TRUE(writer.open(path).isOk());
        for (std::uint64_t i = 1; i <= 3; ++i)
            ASSERT_TRUE(
                writer.append(0, getpidEvent(i), nullptr, 0).isOk());
        ASSERT_TRUE(writer.close().isOk());
    }
    // Tear the last record: drop its final 10 bytes.
    struct stat st = {};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size - 10), 0);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log.value().truncated);
    ASSERT_EQ(log.value().records.size(), 2u);
    EXPECT_EQ(log.value().records[0].event.timestamp, 1u);
    EXPECT_EQ(log.value().records[1].event.timestamp, 2u);
    ::unlink(path.c_str());
}

TEST(LogTest, ChecksumFailureTruncates)
{
    std::string path = tempLogPath();
    {
        LogWriter writer;
        ASSERT_TRUE(writer.open(path).isOk());
        for (std::uint64_t i = 1; i <= 3; ++i)
            ASSERT_TRUE(
                writer.append(0, getpidEvent(i), nullptr, 0).isOk());
        ASSERT_TRUE(writer.close().isOk());
    }
    // Flip one byte inside the last record's event (crc-covered).
    const off_t offset = static_cast<off_t>(sizeof(LogHeader) +
                                            2 * sizeof(RecordHeader) + 12);
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    std::uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, offset), 1);
    byte ^= 0x40;
    ASSERT_EQ(::pwrite(fd, &byte, 1, offset), 1);
    ::close(fd);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log.value().truncated);
    ASSERT_EQ(log.value().records.size(), 2u);
    ::unlink(path.c_str());
}

TEST(LogTest, ReadsV1Logs)
{
    std::string path = tempLogPath();
    LogHeader header = {};
    std::memcpy(header.magic, kLogMagic, sizeof(header.magic));
    header.version = 1;

    RecordHeaderV1 first = {};
    first.tuple = 0;
    first.event = getpidEvent(1);
    RecordHeaderV1 second = {};
    second.tuple = 0;
    second.event = getpidEvent(2);
    second.payload_size = 4;
    const char payload[4] = {'d', 'a', 't', 'a'};

    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_EQ(std::fwrite(&header, 1, sizeof(header), f),
              sizeof(header));
    ASSERT_EQ(std::fwrite(&first, 1, sizeof(first), f), sizeof(first));
    ASSERT_EQ(std::fwrite(&second, 1, sizeof(second), f),
              sizeof(second));
    ASSERT_EQ(std::fwrite(payload, 1, sizeof(payload), f),
              sizeof(payload));
    std::fclose(f);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().version, 1u);
    EXPECT_FALSE(log.value().truncated);
    ASSERT_EQ(log.value().records.size(), 2u);
    EXPECT_EQ(log.value().records[0].event.timestamp, 1u);
    ASSERT_EQ(log.value().records[1].payload.size(), 4u);
    EXPECT_EQ(std::memcmp(log.value().records[1].payload.data(), "data",
                          4),
              0);
    ::unlink(path.c_str());
}

// --- malformed records: decodable errors, never out-of-range access ---

/** Write @p bytes after a log header of @p version to a fresh path. */
std::string
writeLog(std::uint32_t version, const std::vector<std::uint8_t> &bytes)
{
    std::string path = tempLogPath();
    LogHeader header = {};
    std::memcpy(header.magic, kLogMagic, sizeof(header.magic));
    header.version = version;
    FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(&header, 1, sizeof(header), f), sizeof(header));
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return path;
}

/** An external-leader layout to replay into; no variants run. */
struct ReplayTarget {
    shmem::Region region;
    core::EngineLayout layout;

    ReplayTarget()
    {
        auto r = shmem::Region::create(8 << 20);
        VARAN_CHECK(r.ok());
        region = std::move(r.value());
        layout = core::EngineLayout::create(&region, 1, core::kNoLeader, 64);
    }
};

TEST(LogTest, RecordNamingNoTupleEndsTheValidPrefix)
{
    // The record checksum holds, so only the tuple bound can catch it:
    // the replayer would index the layout's tuple table with it.
    std::vector<std::uint8_t> bytes;
    appendRecord(bytes, 0, getpidEvent(1), nullptr, 0);
    appendRecord(bytes, core::kMaxTuples, getpidEvent(2), nullptr, 0);
    appendRecord(bytes, 0, getpidEvent(3), nullptr, 0);
    const std::string path = writeLog(kLogVersion, bytes);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log.value().truncated);
    ASSERT_EQ(log.value().records.size(), 1u);
    EXPECT_EQ(log.value().records[0].event.timestamp, 1u);

    // Replaying stops at the same record, without touching a ring.
    ReplayTarget target;
    Replayer replayer(&target.region, &target.layout, path);
    auto stats = replayer.replayAll();
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats.value().truncated);
    EXPECT_EQ(stats.value().events, 1u);
    ::unlink(path.c_str());
}

TEST(LogTest, V1RecordNamingNoTupleEndsTheValidPrefix)
{
    // A v1 log has no record checksum at all.
    RecordHeaderV1 good = {};
    good.event = getpidEvent(1);
    RecordHeaderV1 bad = {};
    bad.tuple = 0xdeadbeef;
    bad.event = getpidEvent(2);
    std::vector<std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t *>(&good),
        reinterpret_cast<const std::uint8_t *>(&good + 1));
    bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t *>(&bad),
                 reinterpret_cast<const std::uint8_t *>(&bad + 1));
    const std::string path = writeLog(1, bytes);

    auto log = readLog(path);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log.value().truncated);
    ASSERT_EQ(log.value().records.size(), 1u);
    ::unlink(path.c_str());
}

/** Bytes of address space the calling process has mapped. */
rlim_t
mappedBytes()
{
    unsigned long pages = 0;
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (f) {
        if (std::fscanf(f, "%lu", &pages) != 1)
            pages = 0;
        std::fclose(f);
    }
    return static_cast<rlim_t>(pages) *
           static_cast<rlim_t>(::sysconf(_SC_PAGESIZE));
}

TEST(LogTest, OversizedPayloadEndsTheValidPrefix)
{
    // A record claiming ~4 GiB of payload in a file of a few hundred
    // bytes, in both record layouts. The reader runs in a child whose
    // address space may grow by 256 MiB only, so a reader that sizes
    // its buffer from the claim fails there with std::bad_alloc instead
    // of touching gigabytes of memory.
    constexpr std::uint32_t kHugePayload = 0xFFFFFFF0u;
    std::vector<std::string> paths;
    {
        std::vector<std::uint8_t> bytes;
        appendRecord(bytes, 0, getpidEvent(1), nullptr, 0);
        RecordHeader huge = {};
        huge.event = getpidEvent(2);
        huge.payload_size = kHugePayload;
        const auto *p = reinterpret_cast<const std::uint8_t *>(&huge);
        bytes.insert(bytes.end(), p, p + sizeof(huge));
        paths.push_back(writeLog(kLogVersion, bytes));
    }
    {
        RecordHeaderV1 good = {};
        good.event = getpidEvent(1);
        RecordHeaderV1 huge = {};
        huge.event = getpidEvent(2);
        huge.payload_size = kHugePayload;
        std::vector<std::uint8_t> bytes(
            reinterpret_cast<const std::uint8_t *>(&good),
            reinterpret_cast<const std::uint8_t *>(&good + 1));
        bytes.insert(bytes.end(),
                     reinterpret_cast<const std::uint8_t *>(&huge),
                     reinterpret_cast<const std::uint8_t *>(&huge + 1));
        paths.push_back(writeLog(1, bytes));
    }

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const rlim_t cap = mappedBytes() + (rlim_t{256} << 20);
        const struct rlimit limit = {cap, cap};
        if (::setrlimit(RLIMIT_AS, &limit) != 0)
            ::_exit(2);
        try {
            for (const std::string &path : paths) {
                LogReader reader;
                LogRecord rec;
                if (!reader.open(path).isOk())
                    ::_exit(3);
                if (reader.next(&rec) != LogReader::Next::Record ||
                    rec.event.timestamp != 1) {
                    ::_exit(4);
                }
                if (reader.next(&rec) != LogReader::Next::Truncated)
                    ::_exit(5);
            }
        } catch (const std::bad_alloc &) {
            ::_exit(6);
        }
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "child died by signal "
                                   << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
    for (const std::string &path : paths)
        ::unlink(path.c_str());
}

TEST(ReplayTest, ForkNamingNoTupleIsAProtocolError)
{
    // A well-formed record whose Fork opens a tuple that cannot exist:
    // replay fails with EPROTO instead of aborting the process.
    ring::Event fork = {};
    fork.type = ring::EventType::Fork;
    fork.timestamp = 2;
    fork.args[0] = core::kMaxTuples;
    std::vector<std::uint8_t> bytes;
    appendRecord(bytes, 0, getpidEvent(1), nullptr, 0);
    appendRecord(bytes, 0, fork, nullptr, 0);
    const std::string path = writeLog(kLogVersion, bytes);

    ReplayTarget target;
    Replayer replayer(&target.region, &target.layout, path);
    auto stats = replayer.replayAll();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().code, EPROTO);
    EXPECT_EQ(replayer.stats().events, 1u);
    EXPECT_EQ(target.layout.controlBlock(&target.region)->num_tuples.load(),
              1u);
    ::unlink(path.c_str());
}

} // namespace
} // namespace varan::rr
