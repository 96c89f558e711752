/**
 * @file
 * tapacs-cache — disk-cache maintenance and fault-injection helper.
 *
 * --scrub walks a cache directory offline: every `.tce` entry is
 * CRC64-verified (the same check the serving path applies on read),
 * corrupt entries are removed, every leftover temp is removed (those
 * staged in `DIR/.tmp/` and the top-level `.tmp.*` temps older builds
 * left next to the entries), and a one-line report is printed.
 * Scrubbing is safe while a fleet is running — readers treat a
 * vanished entry as an ordinary miss.
 *
 * --flip and --truncate are the chaos harness's file-corruption
 * primitives exposed for scripts (tools/run_chaos.sh): flip one bit /
 * drop the tail of a file, so CI can prove that a corrupted cache
 * entry degrades to a typed miss and a torn journal record is skipped
 * with a typed diagnostic rather than crashing anything.
 *
 * Usage:
 *   tapacs-cache --scrub DIR [--strict]
 *   tapacs-cache --flip FILE BITINDEX
 *   tapacs-cache --truncate FILE BYTES
 *
 *   --strict   exit 1 when the scrub removed anything (CI gate for
 *              "the cache should have been clean")
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cache/store.hh"
#include "serve/chaos.hh"

using namespace tapacs;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: tapacs-cache --scrub DIR [--strict]\n"
                 "       tapacs-cache --flip FILE BITINDEX\n"
                 "       tapacs-cache --truncate FILE BYTES\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string mode = argv[1];

    if (mode == "--scrub") {
        const std::string dir = argv[2];
        bool strict = false;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--strict") == 0)
                strict = true;
            else
                usage();
        }
        const cache::CacheStore::ScrubReport report =
            cache::CacheStore::scrubDirectory(dir);
        std::printf("scrub %s: %d entr%s ok (%llu bytes), %d corrupt "
                    "removed, %d temp(s) removed\n",
                    dir.c_str(), report.entriesOk,
                    report.entriesOk == 1 ? "y" : "ies",
                    (unsigned long long)report.bytesOk,
                    report.corruptRemoved, report.tempsRemoved);
        if (strict &&
            (report.corruptRemoved > 0 || report.tempsRemoved > 0))
            return 1;
        return 0;
    }

    if (mode == "--flip") {
        if (argc != 4)
            usage();
        const std::string file = argv[2];
        const std::uint64_t bit =
            std::strtoull(argv[3], nullptr, 10);
        if (!serve::flipBit(file, bit)) {
            std::fprintf(stderr, "cannot flip bit %llu of '%s'\n",
                         (unsigned long long)bit, file.c_str());
            return 1;
        }
        return 0;
    }

    if (mode == "--truncate") {
        if (argc != 4)
            usage();
        const std::string file = argv[2];
        const std::uint64_t bytes =
            std::strtoull(argv[3], nullptr, 10);
        if (!serve::truncateTail(file, bytes)) {
            std::fprintf(stderr,
                         "cannot truncate %llu byte(s) off '%s'\n",
                         (unsigned long long)bytes, file.c_str());
            return 1;
        }
        return 0;
    }

    usage();
}
