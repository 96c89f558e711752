#include "graph/serialize.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

#include "common/logging.hh"

namespace tapacs
{
namespace
{

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isExponentMark(char c)
{
    return c == 'e' || c == 'E';
}

/**
 * For a decimal number that from_chars found out of range: true when
 * it lies below the smallest subnormal (its leading significant digit
 * sits at a negative power of ten), false when it lies above the
 * largest double. [p, end) holds the digits from_chars consumed.
 */
bool
underflows(const char *p, const char *end)
{
    if (*p == '-')
        ++p;
    // Power of ten of the digit under p, before the exponent applies.
    long long power = std::find_if_not(p, end, isDigit) - p - 1;
    for (; p < end && !isExponentMark(*p); ++p) {
        if (*p == '.')
            continue;
        if (*p != '0')
            break;
        --power;
    }
    p = std::find_if(p, end, isExponentMark);
    if (p == end)
        return power < 0;
    ++p;
    const bool negative = *p == '-';
    if (*p == '+' || *p == '-')
        ++p;
    // Saturate far above any power a text of this length can reach.
    const long long cap = 1'000'000'000'000'000;
    long long exponent = 0;
    for (; p < end; ++p)
        exponent = std::min(exponent * 10 + (*p - '0'), cap);
    return power + (negative ? -exponent : exponent) < 0;
}

/**
 * Reads the whitespace-separated fields of one line in place. Each
 * read skips leading whitespace and returns false on a missing or
 * malformed field. Within a record, the numeric reads accept what
 * `std::istream::operator>>` accepts in the C locale and yield the
 * same values.
 */
class FieldReader
{
  public:
    FieldReader(const char *p, const char *end) : p_(p), end_(end) {}

    bool word(std::string_view *out)
    {
        skipSpace();
        const char *start = p_;
        p_ = std::find_if(p_, end_, isSpace);
        *out = std::string_view(start, p_ - start);
        return p_ != start;
    }

    bool number(int *out)
    {
        const char *first = numberStart(false);
        if (!first)
            return false;
        const auto [ptr, ec] = std::from_chars(first, end_, *out);
        p_ = ptr;
        return ec == std::errc();
    }

    bool number(double *out)
    {
        const char *first = numberStart(true);
        if (!first)
            return false;
        // from_chars leaves an exponent mark with no digits after it
        // ("1e") to the next field, which then fails: every double in
        // a record is followed by another number.
        const auto [ptr, ec] = std::from_chars(first, end_, *out);
        if (ec == std::errc::invalid_argument)
            return false;
        if (ec == std::errc::result_out_of_range) {
            if (!underflows(first, ptr))
                return false;
            *out = *first == '-' ? -0.0 : 0.0;
        }
        p_ = ptr;
        return true;
    }

  private:
    void skipSpace() { p_ = std::find_if_not(p_, end_, isSpace); }

    /**
     * Where from_chars should start on the number under the cursor,
     * or null when the field cannot be one. operator>> takes one sign,
     * '+' included, and then needs a digit (or, for a double, a
     * point): that excludes "+-5", "inf" and "nan", and from_chars
     * rejects a '+' itself.
     */
    const char *numberStart(bool point)
    {
        skipSpace();
        const char *digits = p_;
        if (digits != end_ && (*digits == '+' || *digits == '-'))
            ++digits;
        if (digits == end_ ||
            !(isDigit(*digits) || (point && *digits == '.')))
            return nullptr;
        return *p_ == '+' ? digits : p_;
    }

    const char *p_;
    const char *end_;
};

/** Appends a name as a C string: up to its first NUL byte. */
void
appendName(std::string &out, const std::string &name)
{
    out.append(name.c_str(), std::strlen(name.c_str()));
}

/** Appends " <v>" formatted as printf's "%.17g". */
void
appendField(std::string &out, double v)
{
    char buf[32];
    buf[0] = ' ';
    const auto r = std::to_chars(buf + 1, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

/** Appends " <v>" formatted as printf's "%d". */
void
appendField(std::string &out, int v)
{
    char buf[16];
    buf[0] = ' ';
    const auto r = std::to_chars(buf + 1, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

} // namespace

std::string
serializeTaskGraph(const TaskGraph &g)
{
    // Upper bound: a field takes at most 25 bytes as a double, 12 as an
    // int, its leading space included.
    std::size_t size = 7 + g.name().size();
    for (const Vertex &v : g.vertices())
        size += 8 + v.name.size() + 9 * 25 + 3 * 12;
    size += g.edges().size() * (5 + 5 * 12 + 25);
    std::string out;
    out.reserve(size);

    out += "graph ";
    appendName(out, g.name());
    out += '\n';
    for (const Vertex &v : g.vertices()) {
        out += "vertex ";
        appendName(out, v.name);
        for (ResourceKind k : {ResourceKind::Lut, ResourceKind::Ff,
                               ResourceKind::Bram, ResourceKind::Dsp,
                               ResourceKind::Uram})
            appendField(out, v.area[k]);
        appendField(out, v.work.computeOps);
        appendField(out, v.work.opsPerCycle);
        appendField(out, v.work.memReadBytes);
        appendField(out, v.work.memWriteBytes);
        appendField(out, v.work.memPortWidthBits);
        appendField(out, v.work.memChannels);
        appendField(out, v.work.numBlocks);
        out += '\n';
    }
    for (const Edge &e : g.edges()) {
        out += "edge";
        appendField(out, e.src);
        appendField(out, e.dst);
        appendField(out, e.widthBits);
        appendField(out, e.totalBytes);
        appendField(out, e.depth);
        appendField(out, e.initialTokens);
        out += '\n';
    }
    return out;
}

Status
tryParseTaskGraph(const std::string &text, TaskGraph *out)
{
    TaskGraph g;
    const char *p = text.data();
    const char *const end = p + text.size();
    int lineno = 0;
    while (p != end) {
        const char *eol = static_cast<const char *>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        if (!eol)
            eol = end;
        FieldReader fields(p, eol);
        const bool skip = p == eol || *p == '#';
        p = eol == end ? end : eol + 1;
        ++lineno;
        if (skip)
            continue;
        std::string_view kind;
        fields.word(&kind);
        if (kind == "graph") {
            std::string_view name;
            fields.word(&name);
            g.setName(std::string(name));
        } else if (kind == "vertex") {
            Vertex v;
            std::string_view name;
            double lut = 0.0, ff = 0.0, bram = 0.0, dsp = 0.0, uram = 0.0;
            WorkProfile &w = v.work;
            if (!(fields.word(&name) && fields.number(&lut) &&
                  fields.number(&ff) && fields.number(&bram) &&
                  fields.number(&dsp) && fields.number(&uram) &&
                  fields.number(&w.computeOps) &&
                  fields.number(&w.opsPerCycle) &&
                  fields.number(&w.memReadBytes) &&
                  fields.number(&w.memWriteBytes) &&
                  fields.number(&w.memPortWidthBits) &&
                  fields.number(&w.memChannels) &&
                  fields.number(&w.numBlocks)))
                return Status::invalidInput(
                    "task-graph parse error at line %d: bad vertex",
                    lineno);
            v.name = name;
            v.area = ResourceVector(lut, ff, bram, dsp, uram);
            g.addVertex(std::move(v));
        } else if (kind == "edge") {
            int src = 0, dst = 0, width = 0, depth = 0, init = 0;
            double bytes = 0.0;
            if (!(fields.number(&src) && fields.number(&dst) &&
                  fields.number(&width) && fields.number(&bytes) &&
                  fields.number(&depth) && fields.number(&init)))
                return Status::invalidInput(
                    "task-graph parse error at line %d: bad edge",
                    lineno);
            if (src < 0 || src >= g.numVertices() || dst < 0 ||
                dst >= g.numVertices()) {
                return Status::invalidInput(
                    "task-graph parse error at line %d: edge refers "
                    "to missing vertex",
                    lineno);
            }
            if (width <= 0 || depth < 1 || bytes < 0.0)
                return Status::invalidInput(
                    "task-graph parse error at line %d: bad edge "
                    "parameters",
                    lineno);
            const EdgeId e = g.addEdge(src, dst, width, bytes, depth);
            g.edge(e).initialTokens = init;
        } else {
            return Status::invalidInput(
                "task-graph parse error at line %d: unknown record "
                "'%s'",
                lineno, std::string(kind).c_str());
        }
    }
    *out = std::move(g);
    return Status();
}

TaskGraph
parseTaskGraph(const std::string &text)
{
    TaskGraph g;
    const Status st = tryParseTaskGraph(text, &g);
    if (!st.ok())
        fatal("%s", st.message().c_str());
    return g;
}

} // namespace tapacs
