#include "trace/inspect.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "core/layout.h"
#include "core/nvx.h"
#include "netio/socketio.h"
#include "syscalls/sys.h"
#include "wire/io.h"
#include "wire/protocol.h"

namespace varan::trace {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                              sizeof(buf) - 1));
}

const char *
variantStateName(std::uint32_t state)
{
    switch (static_cast<core::VariantState>(state)) {
      case core::VariantState::Empty:   return "empty";
      case core::VariantState::Running: return "running";
      case core::VariantState::Crashed: return "crashed";
      case core::VariantState::Exited:  return "exited";
    }
    return "unknown";
}

void
appendHistogram(std::string &out, const char *name,
                const core::HistogramStatus &h)
{
    appendf(out, "%-16s count=%" PRIu64 " sum=%" PRIu64 "ns", name,
            h.count, h.sum);
    if (h.count > 0)
        appendf(out, " mean=%" PRIu64 "ns", h.sum / h.count);
    appendf(out, "\n");
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
        if (h.buckets[i] == 0)
            continue;
        if (i + 1 < kHistogramBuckets)
            appendf(out, "    le %" PRIu64 "ns: %" PRIu64 "\n",
                    histogramBound(i), h.buckets[i]);
        else
            appendf(out, "    le +Inf: %" PRIu64 "\n", h.buckets[i]);
    }
}

} // namespace

Result<shmem::Region>
attachProcessRegion(int pid)
{
    char dir_path[64];
    std::snprintf(dir_path, sizeof(dir_path), "/proc/%d/fd", pid);
    DIR *dir = ::opendir(dir_path);
    if (dir == nullptr)
        return errnoResult<shmem::Region>();
    int found = -1;
    int open_errno = ENOENT;
    while (struct dirent *entry = ::readdir(dir)) {
        if (entry->d_name[0] == '.')
            continue;
        char link_path[384];
        std::snprintf(link_path, sizeof(link_path), "%s/%s", dir_path,
                      entry->d_name);
        char target[256];
        const ssize_t n =
            ::readlink(link_path, target, sizeof(target) - 1);
        if (n <= 0)
            continue;
        target[n] = '\0';
        // The engine memfd reads "/memfd:varan-shm (deleted)" in the
        // fd table; opening the /proc link maps the same inode.
        if (std::strncmp(target, "/memfd:varan-shm", 16) != 0)
            continue;
        found = ::open(link_path, O_RDWR | O_CLOEXEC);
        if (found >= 0)
            break;
        open_errno = errno;
    }
    ::closedir(dir);
    if (found < 0)
        return Result<shmem::Region>(Errno{open_errno});
    struct stat st = {};
    if (::fstat(found, &st) < 0) {
        const int e = errno;
        ::close(found);
        return Result<shmem::Region>(Errno{e});
    }
    return shmem::Region::fromFd(Fd(found),
                                 static_cast<std::size_t>(st.st_size));
}

std::string
renderStatus(const core::StatusReport &report)
{
    std::string out;
    appendf(out,
            "engine: %u variant(s), leader %d, epoch %u, "
            "generation %u, %u tuple(s)\n",
            report.num_variants,
            report.leader == core::kNoLeader
                ? -1
                : static_cast<int>(report.leader),
            report.epoch, report.stream_generation, report.num_tuples);
    appendf(out,
            "stream: %" PRIu64 " events, %" PRIu64 " fd transfers\n",
            report.events_streamed, report.fd_transfers);
    appendf(out,
            "divergences: %" PRIu64 " resolved, %" PRIu64 " fatal, "
            "%" PRIu64 " ledger record(s)\n",
            report.divergences_resolved, report.divergences_fatal,
            report.trace.ledger_records);
    appendf(out,
            "trace: %s, %" PRIu64 " flight-recorder stamp(s)\n",
            report.trace.enabled ? "enabled" : "disabled",
            report.trace.trace_records);
    for (std::uint32_t v = 0; v < report.num_variants; ++v) {
        const core::VariantStatus &vs = report.variants[v];
        appendf(out,
                "variant %u: %s pid=%u role=%s syscalls=%" PRIu64
                " ring_lag=%" PRIu64 " restarts=%u\n",
                v, variantStateName(vs.state), vs.pid,
                vs.role == static_cast<std::uint32_t>(
                               core::VariantRole::FollowerOnly)
                    ? "follower-only"
                    : "leader-candidate",
                vs.syscalls, vs.ring_lag, vs.restarts);
    }
    if (report.shipper.active)
        appendf(out,
                "shipper: link %s, %u peer(s), %" PRIu64 " frames, "
                "%" PRIu64 " credit stall(s)\n",
                report.shipper.link_up ? "up" : "down",
                report.shipper.peers, report.shipper.frames,
                report.shipper.credit_stalls);
    if (report.receiver.active)
        appendf(out,
                "receiver: link %s, promoted=%u%s, %" PRIu64 " frames\n",
                report.receiver.link_up ? "up" : "down",
                report.receiver.promoted,
                report.receiver.fenced ? ", FENCED" : "",
                report.receiver.frames);
    return out;
}

std::string
renderQuorum(const core::StatusReport &report)
{
    const core::QuorumStatus &q = report.quorum;
    std::string out;
    if (!q.active) {
        appendf(out, "quorum: not configured (single-node watchdog "
                     "promotion)\n");
        return out;
    }
    appendf(out, "quorum: node %u of %u member(s), %u live, term %" PRIu64
                 "\n",
            q.node_id, q.members, q.live_members, q.term);
    if (q.holder == wire::kNoQuorumNode)
        appendf(out, "lease: none held (term %" PRIu64 " expired or never "
                     "granted)\n",
                q.term);
    else
        appendf(out, "lease: held by node %u%s\n", q.holder,
                q.holder == q.node_id ? " (this node)" : "");
    appendf(out, "health: %s\n",
            q.fenced ? "FENCED — minority side of a partition, "
                       "buffering only"
                     : (q.live_members * 2 > q.members
                            ? "quorate"
                            : "degraded — below strict majority"));
    appendf(out, "elections: %" PRIu64 " started, %" PRIu64 " won, "
                 "%" PRIu64 " vote(s) granted to peers, %" PRIu64
                 " fence order(s)\n",
            q.elections, q.leases_won, q.votes_granted, q.fences);
    return out;
}

std::string
renderHistograms(const core::StatusReport &report)
{
    std::string out;
    appendHistogram(out, "publish_lag", report.trace.publish_lag);
    appendHistogram(out, "credit_stall", report.trace.credit_stall);
    appendHistogram(out, "blackout", report.trace.blackout);
    return out;
}

std::string
renderTuning(const core::StatusReport &report)
{
    std::string out;
    appendf(out, "ship_batch=%u credit_window=%u\n",
            report.tuning.ship_batch, report.tuning.credit_window);
    return out;
}

std::string
renderLedger(const DivergenceRecord *records, std::size_t count)
{
    std::string out;
    for (std::size_t i = 0; i < count; ++i) {
        const DivergenceRecord &r = records[i];
        appendf(out,
                "divergence: variant=%u tuple=%u lamport=%" PRIu64
                " expected_nr=%u observed_nr=%u action=%s epoch=%u "
                "origin=%s",
                r.variant, r.tuple, r.lamport, r.expected_nr,
                r.observed_nr,
                static_cast<DivergenceAction>(r.action) ==
                        DivergenceAction::Fatal
                    ? "fatal"
                    : "resolved",
                r.epoch, r.origin == 0 ? "local" : "remote");
        if (r.origin != 0)
            appendf(out, " receiver=%" PRIu64, r.origin_id);
        appendf(out, "\n");
    }
    return out;
}

std::string
renderTrace(const TraceRecord *records, std::size_t count)
{
    std::string out;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord &r = records[i];
        appendf(out,
                "%" PRIu64 " %-17s variant=%u tuple=%u code=%u "
                "a=%" PRIu64 " b=%" PRIu64 "\n",
                r.ns, stageName(static_cast<Stage>(r.stage)), r.variant,
                r.tuple, r.code, r.a, r.b);
    }
    return out;
}

namespace {

struct Sections {
    bool status = false;
    bool metrics = false;
    bool tuning = false;
    bool quorum = false;
    bool ledger = false;
    bool trace = false;
};

bool
parseSections(int argc, char **argv, int first, Sections *out)
{
    if (first >= argc) {
        // Default: everything except the (long) raw flight recorder.
        out->status = out->metrics = out->tuning = out->quorum =
            out->ledger = true;
        return true;
    }
    for (int i = first; i < argc; ++i) {
        if (std::strcmp(argv[i], "status") == 0)
            out->status = true;
        else if (std::strcmp(argv[i], "metrics") == 0)
            out->metrics = true;
        else if (std::strcmp(argv[i], "tuning") == 0)
            out->tuning = true;
        else if (std::strcmp(argv[i], "quorum") == 0)
            out->quorum = true;
        else if (std::strcmp(argv[i], "ledger") == 0)
            out->ledger = true;
        else if (std::strcmp(argv[i], "trace") == 0)
            out->trace = true;
        else {
            std::fprintf(stderr, "varanctl: unknown section '%s'\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

int
printAttached(const shmem::Region &region, const Sections &sections)
{
    auto layout = core::EngineLayout::attach(&region);
    if (!layout.ok()) {
        std::fprintf(stderr,
                     "varanctl: region is not an initialised engine: %s\n",
                     layout.error().message().c_str());
        return 1;
    }
    const core::StatusReport report =
        core::collectStatus(&region, layout.value());
    const core::ControlBlock *cb =
        layout.value().controlBlock(&region);
    if (sections.status)
        std::fputs(renderStatus(report).c_str(), stdout);
    if (sections.metrics)
        std::fputs(core::statusText(report).c_str(), stdout);
    if (sections.tuning)
        std::fputs(renderTuning(report).c_str(), stdout);
    if (sections.quorum)
        std::fputs(renderQuorum(report).c_str(), stdout);
    if (sections.ledger) {
        // Attached mode reads the *full* retained ledger, not just the
        // report's tail: start the cursor one window back.
        const std::uint64_t head =
            cb->trace.ledger_head.load(std::memory_order_acquire);
        std::uint64_t cursor =
            head > kLedgerSlots ? head - kLedgerSlots : 0;
        DivergenceRecord records[kLedgerSlots];
        const std::size_t n =
            ledgerRead(cb->trace, &cursor, records, kLedgerSlots);
        std::fputs(renderLedger(records, n).c_str(), stdout);
    }
    if (sections.trace) {
        std::vector<TraceRecord> records(kTraceRecords);
        const std::size_t n =
            snapshotTrace(cb->trace, records.data(), records.size());
        std::fputs(renderTrace(records.data(), n).c_str(), stdout);
    }
    return 0;
}

int
commandAttach(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: varanctl attach <pid> [sections]\n");
        return 2;
    }
    Sections sections;
    if (!parseSections(argc, argv, 3, &sections))
        return 2;
    const int pid = std::atoi(argv[2]);
    auto region = attachProcessRegion(pid);
    if (!region.ok()) {
        std::fprintf(stderr,
                     "varanctl: cannot attach to pid %d: %s\n", pid,
                     region.error().message().c_str());
        return 1;
    }
    return printAttached(region.value(), sections);
}

/** Run the wire Status RPC against a coordinator's status endpoint. */
bool
dialStatus(const std::string &endpoint, core::StatusReport *out)
{
    auto sock = netio::connectAbstract(endpoint, 5000);
    if (!sock.ok()) {
        std::fprintf(stderr, "varanctl: cannot connect to '%s': %s\n",
                     endpoint.c_str(), sock.error().message().c_str());
        return false;
    }
    const int fd = sock.value();
    bool decoded = false;
    wire::FrameHeader request = wire::makeStatusRequest();
    std::vector<std::uint8_t> body(sizeof(core::StatusReport));
    wire::FrameHeader header = {};
    if (wire::writeFull(fd, &request, sizeof(request)) &&
        wire::readFull(fd, &header, sizeof(header)) &&
        wire::headerValid(header) &&
        header.body_len == sizeof(core::StatusReport) &&
        wire::readFull(fd, body.data(), body.size())) {
        decoded =
            wire::decodeStatusFrame(header, body.data(), body.size(), out);
    }
    ::close(fd);
    if (!decoded)
        std::fprintf(stderr,
                     "varanctl: no decodable Status reply from '%s'\n",
                     endpoint.c_str());
    return decoded;
}

int
commandDial(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: varanctl dial <endpoint> [sections]\n");
        return 2;
    }
    Sections sections;
    if (!parseSections(argc, argv, 3, &sections))
        return 2;
    core::StatusReport report = {};
    if (!dialStatus(argv[2], &report))
        return 1;
    if (sections.status)
        std::fputs(renderStatus(report).c_str(), stdout);
    if (sections.metrics)
        std::fputs(core::statusText(report).c_str(), stdout);
    if (sections.tuning)
        std::fputs(renderTuning(report).c_str(), stdout);
    if (sections.quorum)
        std::fputs(renderQuorum(report).c_str(), stdout);
    if (sections.ledger)
        std::fputs(renderLedger(report.trace.recent,
                                report.trace.recent_count)
                       .c_str(),
                   stdout);
    if (sections.trace)
        std::fprintf(stderr, "varanctl: the flight recorder is only "
                             "readable in attach mode\n");
    return 0;
}

/**
 * End-to-end smoke used by CI: run a two-variant engine whose follower
 * deliberately diverges (resolved by a BPF Allow rule), then inspect
 * it through both paths — attach against our own pid and dial against
 * the engine's status endpoint — and verify the output carries the
 * status, a populated latency histogram and the divergence record.
 */
int
commandSelftest()
{
    core::EngineConfig config;
    config.ring.capacity = 64;
    config.shm_bytes = 16 << 20;
    config.ring.progress_timeout_ns = 10000000000ULL;
    // Listing 1 (section 5.2): allow a follower getuid the leader
    // never made while the leader sits at getpid.
    config.rewrite_rules.push_back(
        "ld event[0]\n"
        "jeq #39, checkmine /* leader at getpid */\n"
        "jmp bad\n"
        "checkmine:\n"
        "ld [0]\n"
        "jeq #102, good /* follower wants getuid */\n"
        "bad: ret #0\n"
        "good: ret #0x7fff0000\n");
    char endpoint[64];
    std::snprintf(endpoint, sizeof(endpoint), "varanctl-selftest-%d",
                  static_cast<int>(::getpid()));
    config.remote.status_endpoint = endpoint;

    auto app = []() -> int {
        if (core::Monitor::instance() &&
            core::Monitor::instance()->variantId() == 1) {
            sys::vgetuid(); // deliberate divergence, resolved by rule
        }
        // Enough events that the 1-in-64 lag sampling definitely fires.
        for (int i = 0; i < 512; ++i)
            sys::vgetpid();
        return 0;
    };
    core::Nvx nvx(config);
    auto results = nvx.run({app, app});
    for (const auto &result : results) {
        if (result.crashed || result.status != 0) {
            std::fprintf(stderr,
                         "varanctl selftest: variant %d failed "
                         "(crashed=%d status=%d)\n",
                         result.variant, result.crashed, result.status);
            return 1;
        }
    }

    // Path 1: attach against our own coordinator pid.
    auto region = attachProcessRegion(static_cast<int>(::getpid()));
    if (!region.ok()) {
        std::fprintf(stderr, "varanctl selftest: attach failed: %s\n",
                     region.error().message().c_str());
        return 1;
    }
    auto layout = core::EngineLayout::attach(&region.value());
    if (!layout.ok()) {
        std::fprintf(stderr,
                     "varanctl selftest: layout attach failed: %s\n",
                     layout.error().message().c_str());
        return 1;
    }
    const core::StatusReport attached =
        core::collectStatus(&region.value(), layout.value());

    // Path 2: dial the engine's status endpoint.
    core::StatusReport dialed = {};
    if (!dialStatus(endpoint, &dialed))
        return 1;

    Sections sections;
    sections.status = sections.metrics = sections.tuning =
        sections.ledger = true;
    const int rc = printAttached(region.value(), sections);
    if (rc != 0)
        return rc;

    // The assertions CI leans on.
    const core::StatusReport *reports[] = {&attached, &dialed};
    for (const core::StatusReport *report : reports) {
        if (report->divergences_resolved < 1 ||
            report->trace.ledger_records < 1 ||
            report->trace.recent_count < 1) {
            std::fprintf(stderr, "varanctl selftest: no divergence "
                                 "record surfaced\n");
            return 1;
        }
        const DivergenceRecord &rec =
            report->trace.recent[report->trace.recent_count - 1];
        if (rec.observed_nr != 102 || rec.expected_nr != 39 ||
            rec.action !=
                static_cast<std::uint8_t>(DivergenceAction::Resolved)) {
            std::fprintf(stderr, "varanctl selftest: unexpected ledger "
                                 "record (%u -> %u)\n",
                         rec.expected_nr, rec.observed_nr);
            return 1;
        }
        if (report->trace.publish_lag.count < 1) {
            std::fprintf(stderr, "varanctl selftest: publish-lag "
                                 "histogram is empty\n");
            return 1;
        }
    }
    std::fputs("varanctl selftest: ok\n", stdout);
    return 0;
}

} // namespace

int
varanctlMain(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(
            stderr,
            "usage: varanctl <command> ...\n"
            "  attach <pid> [sections]      inspect a live engine's "
            "shared region\n"
            "  dial <endpoint> [sections]   wire Status RPC against a "
            "status endpoint\n"
            "  selftest                     run + inspect an in-process "
            "engine\n"
            "sections: status metrics tuning quorum ledger trace "
            "(default: all but trace)\n");
        return 2;
    }
    if (std::strcmp(argv[1], "attach") == 0)
        return commandAttach(argc, argv);
    if (std::strcmp(argv[1], "dial") == 0)
        return commandDial(argc, argv);
    if (std::strcmp(argv[1], "selftest") == 0)
        return commandSelftest();
    std::fprintf(stderr, "varanctl: unknown command '%s'\n", argv[1]);
    return 2;
}

} // namespace varan::trace
