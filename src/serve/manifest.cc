#include "serve/manifest.hh"

#include <sstream>

#include "common/logging.hh"

namespace tapacs::serve
{

namespace
{

bool
knownWorkload(const std::string &name)
{
    return name == "stencil" || name == "pagerank" || name == "knn" ||
           name == "cnn";
}

} // namespace

Status
parseModeName(const std::string &name, CompileMode *out)
{
    if (name == "vitis")
        *out = CompileMode::VitisBaseline;
    else if (name == "tapa")
        *out = CompileMode::TapaSingle;
    else if (name == "tapacs")
        *out = CompileMode::TapaCs;
    else
        return Status::invalidInput("unknown mode '%s'", name.c_str());
    return Status();
}

Status
parseSolverName(const std::string &name, L1Backend *out)
{
    if (name == toString(L1Backend::Exact))
        *out = L1Backend::Exact;
    else if (name == toString(L1Backend::Multilevel))
        *out = L1Backend::Multilevel;
    else
        return Status::invalidInput(
            "unknown solver '%s' (exact|multilevel)", name.c_str());
    return Status();
}

ParsedManifest
parseManifest(const std::string &text)
{
    ParsedManifest out;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;

    auto reject = [&](const std::string &message) {
        out.diagnostics.push_back({lineno, message});
    };

    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream tokens(line);
        std::string word;
        if (!(tokens >> word))
            continue;
        if (word != "request") {
            reject(strprintf("expected 'request', got '%s'",
                             word.c_str()));
            continue;
        }
        Request req;
        if (!(tokens >> req.name)) {
            reject("request needs a name");
            continue;
        }
        bool bad = false;
        // Which explore axes were given (vs defaulted): axis keys
        // without explore=1 are a cross-rule violation, and axes the
        // line does not name inherit threshold=/topology=.
        bool sawAxis = false;
        bool sawT = false;
        bool sawTopoAxis = false;
        bool sawSimulate = false;
        while (!bad && tokens >> word) {
            const std::size_t eq = word.find('=');
            if (eq == std::string::npos) {
                reject(strprintf("expected key=value, got '%s'",
                                 word.c_str()));
                bad = true;
                break;
            }
            const std::string key = word.substr(0, eq);
            const std::string value = word.substr(eq + 1);
            std::int64_t n = 0;
            double x = 0.0;
            if (key == "workload") {
                if (!knownWorkload(value)) {
                    reject(strprintf("unknown workload '%s' (want "
                                     "stencil|pagerank|knn|cnn)",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.workload = value;
                }
            } else if (key == "graph") {
                if (value.empty()) {
                    reject("graph= needs a file name");
                    bad = true;
                } else {
                    req.graphFile = value;
                }
            } else if (key == "fpgas") {
                if (!explore::parseInt(value, 1, 256, &n)) {
                    reject(strprintf("fpgas must be an integer in "
                                     "[1, 256], got '%s'",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.fpgas = static_cast<int>(n);
                }
            } else if (key == "mode") {
                const Status st = parseModeName(value, &req.mode);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                }
            } else if (key == "topology") {
                const Status st =
                    explore::parseTopologyName(value, &req.topology);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                }
            } else if (key == "threshold") {
                if (!explore::parseDouble(value, 1.0e-6, 1.0, &x)) {
                    reject(strprintf("threshold must be in (0, 1], "
                                     "got '%s'",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.threshold = x;
                }
            } else if (key == "scale") {
                if (!explore::parseInt(value, 0, 1'000'000'000'000LL, &n)) {
                    reject(strprintf("scale must be an integer in "
                                     "[0, 1e12], got '%s'",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.scale = n;
                }
            } else if (key == "repeat") {
                if (!explore::parseInt(value, 1, 10'000, &n)) {
                    reject(strprintf("repeat must be an integer in "
                                     "[1, 10000], got '%s'",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.repeat = static_cast<int>(n);
                }
            } else if (key == "deadline_ms") {
                if (!explore::parseDouble(value, -1.0, 1.0e9, &x)) {
                    reject(strprintf("deadline_ms must be in "
                                     "[-1, 1e9], got '%s'",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.deadlineMs = x;
                }
            } else if (key == "simulate") {
                if (!explore::parseInt(value, 0, 1, &n)) {
                    reject(strprintf("simulate must be 0 or 1, got "
                                     "'%s'", value.c_str()));
                    bad = true;
                } else {
                    req.simulate = n != 0;
                    sawSimulate = true;
                }
            } else if (key == "solver") {
                const Status st = parseSolverName(value, &req.solver);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                }
            } else if (key == "replicate") {
                if (!explore::parseInt(value, 0, 1, &n)) {
                    reject(strprintf("replicate must be 0 or 1, got "
                                     "'%s'", value.c_str()));
                    bad = true;
                } else {
                    req.replicate = n != 0;
                }
            } else if (key == "incremental") {
                if (!explore::parseInt(value, 0, 1, &n)) {
                    reject(strprintf("incremental must be 0 or 1, got "
                                     "'%s'", value.c_str()));
                    bad = true;
                } else {
                    req.incremental = n != 0;
                }
            } else if (key == "base") {
                if (value.empty()) {
                    reject("base= needs a request name");
                    bad = true;
                } else {
                    req.base = value;
                }
            } else if (key == "explore") {
                if (!explore::parseInt(value, 0, 1, &n)) {
                    reject(strprintf("explore must be 0 or 1, got "
                                     "'%s'", value.c_str()));
                    bad = true;
                } else {
                    req.explore = n != 0;
                }
            } else if (key == "t") {
                const Status st = explore::parseThresholdAxis(
                    value, &req.grid.thresholds);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                } else {
                    sawAxis = sawT = true;
                }
            } else if (key == "lambda") {
                const Status st = explore::parseSlotThresholdAxis(
                    value, &req.grid.slotThresholds);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                } else {
                    sawAxis = true;
                }
            } else if (key == "topo") {
                const Status st = explore::parseTopologyAxis(
                    value, &req.grid.topologies);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                } else {
                    sawAxis = sawTopoAxis = true;
                }
            } else if (key == "binding") {
                std::vector<bool> sweeps;
                const Status st =
                    explore::parseBindingAxis(value, &sweeps);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                } else {
                    req.grid.bindingSweeps = std::move(sweeps);
                    sawAxis = true;
                }
            } else if (key == "depth") {
                const Status st =
                    explore::parseDepthAxis(value, &req.grid.depths);
                if (!st.ok()) {
                    reject(st.message());
                    bad = true;
                } else {
                    sawAxis = true;
                }
            } else if (key == "coarse_limit") {
                // 0 keeps the engine default; explicit values must be
                // a sane coarsening target.
                if (!explore::parseInt(value, 0, 100'000, &n) ||
                    (n != 0 && n < 2)) {
                    reject(strprintf("coarse_limit must be 0 or in "
                                     "[2, 100000], got '%s'",
                                     value.c_str()));
                    bad = true;
                } else {
                    req.coarseLimit = static_cast<int>(n);
                }
            } else {
                reject(strprintf("unknown key '%s'", key.c_str()));
                bad = true;
            }
        }
        if (bad)
            continue;
        if (req.workload.empty() == req.graphFile.empty()) {
            reject(strprintf("request '%s' needs exactly one of "
                             "workload= or graph=",
                             req.name.c_str()));
            continue;
        }
        if (req.incremental && req.base.empty()) {
            reject(strprintf("request '%s': incremental=1 needs "
                             "base=NAME", req.name.c_str()));
            continue;
        }
        if (!req.incremental && !req.base.empty()) {
            reject(strprintf("request '%s': base= needs incremental=1",
                             req.name.c_str()));
            continue;
        }
        if (!req.explore && sawAxis) {
            reject(strprintf("request '%s': grid axes (t=/lambda=/"
                             "topo=/binding=/depth=) need explore=1",
                             req.name.c_str()));
            continue;
        }
        if (req.explore && sawSimulate) {
            reject(strprintf("request '%s': explore=1 runs its own "
                             "simulation; drop simulate=",
                             req.name.c_str()));
            continue;
        }
        if (req.explore && req.incremental) {
            reject(strprintf("request '%s': explore=1 is incompatible "
                             "with incremental=",
                             req.name.c_str()));
            continue;
        }
        if (req.explore) {
            // Axes the line did not name inherit the request's own
            // single-compile knobs.
            if (!sawT)
                req.grid.thresholds = {req.threshold};
            if (!sawTopoAxis)
                req.grid.topologies = {req.topology};
            const Status st = req.grid.validate();
            if (!st.ok()) {
                reject(strprintf("request '%s': %s", req.name.c_str(),
                                 st.message().c_str()));
                continue;
            }
        }
        out.requests.push_back(std::move(req));
    }
    return out;
}

namespace
{

const char *
modeName(CompileMode mode)
{
    switch (mode) {
      case CompileMode::VitisBaseline: return "vitis";
      case CompileMode::TapaSingle: return "tapa";
      case CompileMode::TapaCs: return "tapacs";
    }
    return "tapacs";
}

/** %.17g round-trips through strtod exactly (DBL_DECIMAL_DIG). */
std::string
renderDouble(double v)
{
    return strprintf("%.17g", v);
}

} // namespace

std::string
renderRequestLine(const Request &req)
{
    std::string line = "request " + req.name;
    if (!req.workload.empty())
        line += " workload=" + req.workload;
    else
        line += " graph=" + req.graphFile;
    line += strprintf(" fpgas=%d", req.fpgas);
    line += strprintf(" mode=%s", modeName(req.mode));
    line += strprintf(" topology=%s",
                      explore::gridTopologyName(req.topology));
    line += " threshold=" + renderDouble(req.threshold);
    line += strprintf(" scale=%lld", (long long)req.scale);
    // repeat is intentionally not rendered: see the header comment.
    // deadline_ms < -1 is out of the parser's range; every negative
    // value means the same thing (inherit), so clamp.
    line += " deadline_ms=" +
            renderDouble(req.deadlineMs < 0.0 ? -1.0 : req.deadlineMs);
    line += strprintf(" solver=%s", toString(req.solver));
    line += strprintf(" replicate=%d", req.replicate ? 1 : 0);
    if (req.coarseLimit > 0)
        line += strprintf(" coarse_limit=%d", req.coarseLimit);
    if (req.incremental) {
        line += " incremental=1";
        line += " base=" + req.base;
    }
    if (req.explore) {
        // simulate= is incompatible with explore=1, so the sweep
        // branch renders only the grid axes.
        line += " explore=1";
        auto csv = [&line](const char *key) {
            line += ' ';
            line += key;
            line += '=';
        };
        if (!req.grid.thresholds.empty()) {
            csv("t");
            for (std::size_t i = 0; i < req.grid.thresholds.size(); ++i)
                line += (i ? "," : "") +
                        renderDouble(req.grid.thresholds[i]);
        }
        if (!req.grid.slotThresholds.empty()) {
            csv("lambda");
            for (std::size_t i = 0; i < req.grid.slotThresholds.size();
                 ++i) {
                const double v = req.grid.slotThresholds[i];
                line += i ? "," : "";
                line += v < 0.0 ? "follow" : renderDouble(v);
            }
        }
        if (!req.grid.topologies.empty()) {
            csv("topo");
            for (std::size_t i = 0; i < req.grid.topologies.size(); ++i) {
                line += i ? "," : "";
                line += explore::gridTopologyName(req.grid.topologies[i]);
            }
        }
        if (!req.grid.bindingSweeps.empty()) {
            csv("binding");
            for (std::size_t i = 0; i < req.grid.bindingSweeps.size();
                 ++i) {
                line += i ? "," : "";
                line += req.grid.bindingSweeps[i] ? "sweep" : "nearest";
            }
        }
        if (!req.grid.depths.empty()) {
            csv("depth");
            for (std::size_t i = 0; i < req.grid.depths.size(); ++i)
                line += strprintf("%s%d", i ? "," : "",
                                  req.grid.depths[i]);
        }
    } else if (req.simulate) {
        line += " simulate=1";
    }
    return line;
}

} // namespace tapacs::serve
