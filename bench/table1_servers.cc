/**
 * @file
 * Table 1: server applications used in the evaluation — name, size and
 * threading model. Sizes are counted from the in-tree sources at run
 * time (the paper used cloc over the original applications), from the
 * source tree named by VARAN_SOURCE_DIR, which CMake defines.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "benchutil/table.h"

namespace {

/** Non-blank line count of a source file (cloc-lite). */
std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        bool blank = true;
        for (char c : line) {
            if (!std::isspace(static_cast<unsigned char>(c))) {
                blank = false;
                break;
            }
        }
        if (!blank)
            ++lines;
    }
    return lines;
}

} // namespace

int
main()
{
    const std::string base = std::string(VARAN_SOURCE_DIR) + "/src/apps/";
    struct App {
        const char *paper;
        const char *paper_size;
        const char *paper_threading;
        const char *file_cc;
        const char *file_h;
        const char *threading;
    };
    const App apps[] = {
        {"Beanstalkd", "6,365", "single-threaded", "vqueue.cc",
         "vqueue.h", "single-threaded"},
        {"Lighttpd", "38,590", "single-threaded", "vhttpd.cc", "vhttpd.h",
         "single-threaded"},
        {"Memcached", "9,779", "multi-threaded", "vcache.cc", "vcache.h",
         "multi-threaded"},
        {"Nginx", "101,852", "multi-process", "vproxy.cc", "vproxy.h",
         "multi-process"},
        {"Redis", "34,625", "multi-threaded", "vstore.cc", "vstore.h",
         "single-threaded"},
    };

    std::printf("Table 1: server applications used in the evaluation\n\n");
    varan::bench::Table table({"application (paper)", "paper size",
                               "paper threading", "archetype", "our LoC",
                               "our threading"});
    for (const App &app : apps) {
        std::size_t loc = countLines(base + app.file_cc) +
                          countLines(base + app.file_h);
        table.addRow({app.paper, app.paper_size, app.paper_threading,
                      app.file_cc, std::to_string(loc), app.threading});
    }
    table.print();
    table.writeJson("table1");
    std::printf("\nNote: the archetypes reproduce each server's protocol "
                "shape, event-loop structure and\nthreading model, which "
                "is what determines the monitor's cost profile; "
                "application logic is\ncondensed.\n");
    return 0;
}
