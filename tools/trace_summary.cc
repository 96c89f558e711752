/**
 * @file
 * trace_summary: read a Chrome trace_event JSON produced by the
 * tapacs tracer (TAPACS_TRACE) and print a
 * per-phase and per-thread wall-time breakdown. The per-phase table
 * covers compile phases, simulator runs (sim.run) and the serve and
 * fleet request stages.
 *
 * Usage: trace-summary <trace.json>
 *
 * The parser handles the subset of trace JSON our TraceWriter emits —
 * an object with a "traceEvents" array of flat event objects — which
 * also covers traces round-tripped through Perfetto's JSON export.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/frame.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace
{

/** One parsed trace event (the fields the summary needs). */
struct Event
{
    std::string phase;   // "X", "i", "C", "M"
    std::string name;
    std::string category;
    int tid = 0;
    double tsMicros = 0.0;
    double durMicros = 0.0;
    std::string threadName; // for "M" thread_name records
};

/**
 * Minimal JSON tokenizer for flat objects: walks the "traceEvents"
 * array and extracts each event's scalar fields. Nested objects
 * (args) are skipped structurally.
 */
class TraceParser
{
  public:
    explicit TraceParser(std::string text) : text_(std::move(text)) {}

    std::vector<Event>
    parse()
    {
        std::vector<Event> events;
        const size_t arr = text_.find("\"traceEvents\"");
        if (arr == std::string::npos)
            tapacs::fatal("no \"traceEvents\" array in trace file");
        pos_ = text_.find('[', arr);
        if (pos_ == std::string::npos)
            tapacs::fatal("malformed trace: traceEvents is not an array");
        ++pos_;
        skipSpace();
        while (pos_ < text_.size() && text_[pos_] != ']') {
            if (text_[pos_] == ',') {
                ++pos_;
                skipSpace();
                continue;
            }
            if (text_[pos_] != '{')
                tapacs::fatal("malformed trace: expected event object");
            events.push_back(parseEvent());
            skipSpace();
        }
        return events;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    std::string
    parseString()
    {
        tapacs_assert(text_[pos_] == '"');
        ++pos_;
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
                ++pos_;
                switch (text_[pos_]) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u':
                    // \uXXXX: keep the escape verbatim; names the
                    // tracer emits never rely on it.
                    out += "\\u";
                    break;
                  default: out += text_[pos_];
                }
            } else {
                out += text_[pos_];
            }
            ++pos_;
        }
        ++pos_; // closing quote
        return out;
    }

    /** Skip any JSON value (used for args objects and unknown keys). */
    void
    skipValue()
    {
        skipSpace();
        const char c = text_[pos_];
        if (c == '"') {
            parseString();
            return;
        }
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            int depth = 0;
            bool in_string = false;
            while (pos_ < text_.size()) {
                const char ch = text_[pos_];
                if (in_string) {
                    if (ch == '\\')
                        ++pos_;
                    else if (ch == '"')
                        in_string = false;
                } else if (ch == '"') {
                    in_string = true;
                } else if (ch == c) {
                    ++depth;
                } else if (ch == close) {
                    if (--depth == 0) {
                        ++pos_;
                        return;
                    }
                }
                ++pos_;
            }
            tapacs::fatal("malformed trace: unterminated value");
        }
        // Number / literal: scan to the next delimiter.
        while (pos_ < text_.size() && text_[pos_] != ',' &&
               text_[pos_] != '}' && text_[pos_] != ']')
            ++pos_;
    }

    Event
    parseEvent()
    {
        Event ev;
        tapacs_assert(text_[pos_] == '{');
        ++pos_;
        for (;;) {
            skipSpace();
            if (text_[pos_] == '}') {
                ++pos_;
                return ev;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            const std::string key = parseString();
            skipSpace();
            tapacs_assert(text_[pos_] == ':');
            ++pos_;
            skipSpace();
            if (key == "ph") {
                ev.phase = parseString();
            } else if (key == "name") {
                ev.name = parseString();
            } else if (key == "cat") {
                ev.category = parseString();
            } else if (key == "tid") {
                ev.tid = static_cast<int>(parseNumber());
            } else if (key == "ts") {
                ev.tsMicros = parseNumber();
            } else if (key == "dur") {
                ev.durMicros = parseNumber();
            } else if (key == "args" && ev.phase == "M") {
                ev.threadName = parseThreadNameArg();
            } else {
                skipValue();
            }
        }
    }

    double
    parseNumber()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        return std::stod(text_.substr(start, pos_ - start));
    }

    /** Parse {"name":"..."} from a thread_name metadata record. */
    std::string
    parseThreadNameArg()
    {
        tapacs_assert(text_[pos_] == '{');
        const size_t save = pos_;
        std::string found;
        ++pos_;
        for (;;) {
            skipSpace();
            if (text_[pos_] == '}') {
                ++pos_;
                break;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            const std::string key = parseString();
            skipSpace();
            tapacs_assert(text_[pos_] == ':');
            ++pos_;
            skipSpace();
            if (key == "name")
                found = parseString();
            else
                skipValue();
        }
        (void)save;
        return found;
    }

    std::string text_;
    size_t pos_ = 0;
};

std::string
formatMs(double micros)
{
    return tapacs::strprintf("%.3f", micros / 1000.0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: %s <trace.json>\n"
                     "  Summarizes a Chrome trace produced via "
                     "TAPACS_TRACE.\n",
                     argv[0]);
        return 2;
    }

    std::string text;
    if (!tapacs::readFile(argv[1], &text).ok())
        tapacs::fatal("cannot open '%s'", argv[1]);

    TraceParser parser(text);
    const std::vector<Event> events = parser.parse();

    std::map<int, std::string> thread_names;
    struct Accum
    {
        double totalMicros = 0.0;
        std::int64_t count = 0;
        double minTs = 0.0;
        double maxEnd = 0.0;
        bool any = false;

        void
        add(const Event &ev)
        {
            totalMicros += ev.durMicros;
            ++count;
            if (!any || ev.tsMicros < minTs)
                minTs = ev.tsMicros;
            if (!any || ev.tsMicros + ev.durMicros > maxEnd)
                maxEnd = ev.tsMicros + ev.durMicros;
            any = true;
        }
    };
    // Keyed by span name / thread id; std::map keeps the output order
    // stable across runs.
    std::map<std::string, Accum> by_phase;
    // Serve and fleet request stages wrap whole compiles, so they are
    // listed below the compile + sim total instead of adding to it.
    std::map<std::string, Accum> by_stage;
    std::map<int, Accum> by_thread;
    std::int64_t complete_events = 0;

    for (const Event &ev : events) {
        if (ev.phase == "M" && ev.name == "thread_name") {
            thread_names[ev.tid] = ev.threadName;
            continue;
        }
        if (ev.phase != "X")
            continue;
        ++complete_events;
        by_thread[ev.tid].add(ev);
        if (ev.category == "compile" || ev.category == "sim" ||
            ev.name.rfind("phase", 0) == 0) {
            by_phase[ev.name].add(ev);
        } else if (ev.category == "serve" || ev.category == "fleet") {
            // One span per request ("request.<name>",
            // "dispatch.<name>"): fold each stage into one row.
            by_stage[ev.name.substr(0, ev.name.find('.')) + ".*"].add(ev);
        }
    }

    if (complete_events == 0) {
        std::printf("trace '%s' holds no complete ('X') events\n",
                    argv[1]);
        return 0;
    }

    if (!by_phase.empty() || !by_stage.empty()) {
        tapacs::TextTable phases({"phase", "wall ms", "spans"});
        phases.setTitle("Per-phase wall time");
        double total = 0.0;
        for (const auto &[name, acc] : by_phase) {
            phases.addRow({name, formatMs(acc.totalMicros),
                           std::to_string(acc.count)});
            total += acc.totalMicros;
        }
        if (!by_phase.empty()) {
            phases.addSeparator();
            phases.addRow({"total", formatMs(total), ""});
        }
        if (!by_stage.empty()) {
            if (!by_phase.empty())
                phases.addSeparator();
            for (const auto &[name, acc] : by_stage)
                phases.addRow({name, formatMs(acc.totalMicros),
                               std::to_string(acc.count)});
        }
        phases.print();
        std::printf("\n");
    }

    tapacs::TextTable threads(
        {"thread", "busy ms", "spans", "first..last ms"});
    threads.setTitle("Per-thread span time");
    for (const auto &[tid, acc] : by_thread) {
        std::string name = thread_names.count(tid)
                               ? thread_names[tid]
                               : "tid-" + std::to_string(tid);
        threads.addRow({name, formatMs(acc.totalMicros),
                        std::to_string(acc.count),
                        formatMs(acc.minTs) + ".." +
                            formatMs(acc.maxEnd)});
    }
    threads.print();
    return 0;
}
