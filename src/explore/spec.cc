#include "explore/spec.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace tapacs::explore
{

namespace
{

/** Split on @p sep; no trimming — a stray space is a parse error in
 *  the token parsers, which keeps the grammar unambiguous. */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

template <typename T>
bool
contains(const std::vector<T> &values, const T &v)
{
    for (const T &x : values)
        if (x == v)
            return true;
    return false;
}

} // namespace

bool
parseInt(const std::string &text, std::int64_t lo, std::int64_t hi,
         std::int64_t *out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    if (v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
parseDouble(const std::string &text, double lo, double hi, double *out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    if (!(v >= lo && v <= hi)) // NaN fails too
        return false;
    *out = v;
    return true;
}

std::string
ExplorePoint::label() const
{
    return strprintf(
        "t=%.2f l=%s topo=%s bind=%s depth=%d", threshold,
        slotThreshold > 0.0 ? strprintf("%.2f", slotThreshold).c_str()
                            : "follow",
        gridTopologyName(topology), bindingSweep ? "sweep" : "nearest",
        depth);
}

std::size_t
ExploreSpec::numPoints() const
{
    return thresholds.size() * slotThresholds.size() *
           topologies.size() * bindingSweeps.size() * depths.size();
}

ExplorePoint
ExploreSpec::point(std::size_t idx) const
{
    // Canonical order: t outermost, depth innermost (mixed radix).
    ExplorePoint p;
    p.depth = depths[idx % depths.size()];
    idx /= depths.size();
    p.bindingSweep = bindingSweeps[idx % bindingSweeps.size()];
    idx /= bindingSweeps.size();
    p.topology = topologies[idx % topologies.size()];
    idx /= topologies.size();
    p.slotThreshold = slotThresholds[idx % slotThresholds.size()];
    idx /= slotThresholds.size();
    p.threshold = thresholds[idx % thresholds.size()];
    return p;
}

Status
ExploreSpec::validate() const
{
    if (thresholds.empty() || slotThresholds.empty() ||
        topologies.empty() || bindingSweeps.empty() || depths.empty())
        return Status::invalidInput("explore spec has an empty axis");
    for (double t : thresholds)
        if (!(t > 0.0 && t <= 1.0))
            return Status::invalidInput(
                "explore threshold %g outside (0, 1]", t);
    for (double l : slotThresholds)
        if (!(l < 0.0 || (l > 0.0 && l <= 1.0)))
            return Status::invalidInput(
                "explore slot threshold %g outside (0, 1]", l);
    for (int d : depths)
        if (d < 0 || d > 16)
            return Status::invalidInput(
                "explore depth %d outside [0, 16]", d);
    const std::size_t n = numPoints();
    if (n > kMaxExplorePoints)
        return Status::invalidInput(
            "explore grid has %zu points (limit %zu)", n,
            kMaxExplorePoints);
    return Status();
}

Status
parseThresholdAxis(const std::string &csv, std::vector<double> *out)
{
    std::vector<double> values;
    for (const std::string &tok : split(csv, ',')) {
        double v = 0.0;
        if (!parseDouble(tok, 1.0e-6, 1.0, &v))
            return Status::invalidInput(
                "t values must be in (0, 1], got '%s'", tok.c_str());
        if (contains(values, v))
            return Status::invalidInput("duplicate t value '%s'",
                                        tok.c_str());
        values.push_back(v);
    }
    *out = std::move(values);
    return Status();
}

Status
parseSlotThresholdAxis(const std::string &csv, std::vector<double> *out)
{
    std::vector<double> values;
    for (const std::string &tok : split(csv, ',')) {
        double v = -1.0;
        if (tok != "follow" &&
            !parseDouble(tok, 1.0e-6, 1.0, &v))
            return Status::invalidInput(
                "lambda values must be in (0, 1] or 'follow', got "
                "'%s'",
                tok.c_str());
        if (contains(values, v))
            return Status::invalidInput("duplicate lambda value '%s'",
                                        tok.c_str());
        values.push_back(v);
    }
    *out = std::move(values);
    return Status();
}

Status
parseTopologyAxis(const std::string &csv, std::vector<TopologyKind> *out)
{
    std::vector<TopologyKind> values;
    for (const std::string &tok : split(csv, ',')) {
        TopologyKind kind;
        const Status st = parseTopologyName(tok, &kind);
        if (!st.ok())
            return st;
        if (contains(values, kind))
            return Status::invalidInput("duplicate topo value '%s'",
                                        tok.c_str());
        values.push_back(kind);
    }
    *out = std::move(values);
    return Status();
}

Status
parseBindingAxis(const std::string &csv, std::vector<bool> *out)
{
    std::vector<bool> values;
    for (const std::string &tok : split(csv, ',')) {
        bool sweep = false;
        if (tok == "nearest")
            sweep = false;
        else if (tok == "sweep")
            sweep = true;
        else
            return Status::invalidInput(
                "binding values must be nearest|sweep, got '%s'",
                tok.c_str());
        if (contains(values, sweep))
            return Status::invalidInput("duplicate binding value '%s'",
                                        tok.c_str());
        values.push_back(sweep);
    }
    *out = std::move(values);
    return Status();
}

Status
parseDepthAxis(const std::string &csv, std::vector<int> *out)
{
    std::vector<int> values;
    for (const std::string &tok : split(csv, ',')) {
        std::int64_t v = 0;
        if (!parseInt(tok, 0, 16, &v))
            return Status::invalidInput(
                "depth values must be integers in [0, 16], got '%s'",
                tok.c_str());
        if (contains(values, static_cast<int>(v)))
            return Status::invalidInput("duplicate depth value '%s'",
                                        tok.c_str());
        values.push_back(static_cast<int>(v));
    }
    *out = std::move(values);
    return Status();
}

Status
parseGridSpec(const std::string &text, ExploreSpec *out)
{
    ExploreSpec spec;
    if (!text.empty()) {
        bool seen[5] = {false, false, false, false, false};
        for (const std::string &axis : split(text, ';')) {
            if (axis.empty())
                return Status::invalidInput(
                    "empty axis in grid spec (stray ';')");
            const std::size_t eq = axis.find('=');
            if (eq == std::string::npos)
                return Status::invalidInput(
                    "grid axis needs key=values, got '%s'",
                    axis.c_str());
            const std::string key = axis.substr(0, eq);
            const std::string csv = axis.substr(eq + 1);
            int which = -1;
            Status st;
            if (key == "t") {
                which = 0;
                st = parseThresholdAxis(csv, &spec.thresholds);
            } else if (key == "lambda") {
                which = 1;
                st = parseSlotThresholdAxis(csv,
                                            &spec.slotThresholds);
            } else if (key == "topo") {
                which = 2;
                st = parseTopologyAxis(csv, &spec.topologies);
            } else if (key == "binding") {
                which = 3;
                std::vector<bool> sweeps;
                st = parseBindingAxis(csv, &sweeps);
                if (st.ok())
                    spec.bindingSweeps = std::move(sweeps);
            } else if (key == "depth") {
                which = 4;
                st = parseDepthAxis(csv, &spec.depths);
            } else {
                return Status::invalidInput(
                    "unknown grid axis '%s' (want t|lambda|topo|"
                    "binding|depth)",
                    key.c_str());
            }
            if (!st.ok())
                return st;
            if (seen[which])
                return Status::invalidInput(
                    "grid axis '%s' given twice", key.c_str());
            seen[which] = true;
        }
    }
    const Status st = spec.validate();
    if (!st.ok())
        return st;
    *out = std::move(spec);
    return Status();
}

const char *
gridTopologyName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Chain: return "chain";
      case TopologyKind::Ring: return "ring";
      case TopologyKind::Star: return "star";
      case TopologyKind::Mesh2D: return "mesh";
      case TopologyKind::Hypercube: return "hypercube";
      case TopologyKind::FullyConnected: return "full";
    }
    return "?";
}

Status
parseTopologyName(const std::string &name, TopologyKind *out)
{
    for (TopologyKind kind :
         {TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Star,
          TopologyKind::Mesh2D, TopologyKind::Hypercube,
          TopologyKind::FullyConnected}) {
        if (name == gridTopologyName(kind)) {
            *out = kind;
            return Status();
        }
    }
    return Status::invalidInput(
        "unknown topology '%s' (chain|ring|star|mesh|hypercube|full)",
        name.c_str());
}

} // namespace tapacs::explore
