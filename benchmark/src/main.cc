/**
 * @file
 * varanbench: one run of one workload.
 *
 *   varanbench --workload W --seed N --seconds S [--traced]
 *              [--trace-file PATH] [--fault stop-leader|bad-model]
 *
 * Prints one `metric <name> <value> <unit>` line per metric, one
 * `check <name> ok|FAIL` line per correctness check, and the attempted
 * and failed op counts. benchmark/run.py builds this binary, runs it
 * and turns those lines into the result record. The exit status is 0
 * only when every check passed.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "workloads.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: varanbench --workload kv_mixed|cache_mt|"
                 "syscall_storm|wire_stream --seed N --seconds S\n"
                 "                  [--traced] [--trace-file PATH] "
                 "[--fault stop-leader|bad-model]\n");
    std::exit(2);
}

/** Last-resort deadline: a wedged run exits instead of hanging. The
 *  engine's zygote notices its coordinator is gone and kills every
 *  variant, so nothing outlives this process for long. */
void
onAlarm(int)
{
    static const char msg[] = "varanbench: run deadline expired\n";
    [[maybe_unused]] ssize_t n = ::write(2, msg, sizeof(msg) - 1);
    ::_exit(3);
}

} // namespace

int
main(int argc, char **argv)
{
    vb::Params params;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            params.workload = value();
        else if (arg == "--seed")
            params.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            params.seconds = std::atof(value().c_str());
        else if (arg == "--traced")
            params.traced = true;
        else if (arg == "--trace-file")
            params.trace_path = value();
        else if (arg == "--fault")
            params.fault = value();
        else
            usage();
    }
    if (params.seconds <= 0)
        usage();

    void (*run)(const vb::Params &, vb::Report &) = nullptr;
    if (params.workload == "kv_mixed")
        run = vb::runKvMixed;
    else if (params.workload == "cache_mt")
        run = vb::runCacheMt;
    else if (params.workload == "syscall_storm")
        run = vb::runSyscallStorm;
    else if (params.workload == "wire_stream")
        run = vb::runWireStream;
    else
        usage();

    // Servers are torn down while replies may still be in flight.
    ::signal(SIGPIPE, SIG_IGN);
    ::signal(SIGALRM, onAlarm);
    ::alarm(static_cast<unsigned>(params.seconds * 2 + 90));

    if (params.traced) {
        vb::SpanLog::init(1u << 18);
        vb::SpanLog::enable(true);
    }

    vb::Report report;
    run(params, report);

    if (params.traced && !params.trace_path.empty()) {
        const bool written = vb::SpanLog::writeChrome(
            params.trace_path,
            {"driver", "generator", "drain", "native", "variant0",
             "variant1", "variant2"});
        report.check("trace_written", written, params.trace_path);
    }
    report.print();
    return report.allChecksOk() && report.failedSoFar() == 0 ? 0 : 1;
}
