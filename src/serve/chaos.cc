#include "serve/chaos.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace tapacs::serve
{

namespace
{

namespace fs = std::filesystem;

WorkerFault &
slotFault(ChaosPlan *plan, int slot)
{
    if (slot >= static_cast<int>(plan->workerFaults.size()))
        plan->workerFaults.resize(slot + 1);
    return plan->workerFaults[slot];
}

} // namespace

ChaosPlan &
ChaosPlan::kill(int slot, int afterRequests)
{
    WorkerFault &f = slotFault(this, slot);
    f.kind = WorkerFaultKind::Kill;
    f.afterRequests = afterRequests;
    f.seconds = 0.0;
    return *this;
}

ChaosPlan &
ChaosPlan::hang(int slot, int afterRequests, double seconds)
{
    WorkerFault &f = slotFault(this, slot);
    f.kind = WorkerFaultKind::Hang;
    f.afterRequests = afterRequests;
    f.seconds = seconds;
    return *this;
}

ChaosPlan &
ChaosPlan::stall(int slot, int afterRequests, double seconds)
{
    WorkerFault &f = slotFault(this, slot);
    f.kind = WorkerFaultKind::Stall;
    f.afterRequests = afterRequests;
    f.seconds = seconds;
    return *this;
}

ChaosPlan &
ChaosPlan::delayWire(double seconds)
{
    wireDelaySeconds = seconds;
    return *this;
}

WorkerFault
ChaosPlan::faultFor(int slot) const
{
    if (slot < 0 || slot >= static_cast<int>(workerFaults.size()))
        return WorkerFault();
    return workerFaults[slot];
}

ChaosPlan
randomPlan(std::uint64_t seed, int workers, int requests)
{
    Rng rng(seed);
    ChaosPlan plan;
    const int span = std::max(requests, 1);
    for (int slot = 0; slot < workers; ++slot) {
        // Weight kills highest: process death is the failure mode the
        // fleet exists for; hangs and stalls exercise the two timeout
        // paths.
        const double draw = rng.uniformReal();
        const int after = static_cast<int>(
            rng.uniformInt(0, static_cast<std::uint64_t>(span - 1)));
        if (draw < 0.45)
            plan.kill(slot, after);
        else if (draw < 0.60)
            plan.hang(slot, after, 3600.0);
        else if (draw < 0.70)
            plan.stall(slot, after, 0.3);
        // else: this slot stays healthy.
    }
    if (rng.bernoulli(0.25))
        plan.delayWire(rng.uniformReal(0.001, 0.01));
    return plan;
}

std::string
encodeWorkerFault(const WorkerFault &fault)
{
    switch (fault.kind) {
      case WorkerFaultKind::None:
        return "none";
      case WorkerFaultKind::Kill:
        return strprintf("kill:%d", fault.afterRequests);
      case WorkerFaultKind::Hang:
        return strprintf("hang:%d:%.17g", fault.afterRequests,
                         fault.seconds);
      case WorkerFaultKind::Stall:
        return strprintf("stall:%d:%.17g", fault.afterRequests,
                         fault.seconds);
    }
    return "none";
}

bool
decodeWorkerFault(const std::string &text, WorkerFault *out)
{
    WorkerFault f;
    if (text == "none") {
        *out = f;
        return true;
    }
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos)
        return false;
    const std::string kind = text.substr(0, colon);
    const std::string rest = text.substr(colon + 1);
    char *end = nullptr;
    if (kind == "kill") {
        f.kind = WorkerFaultKind::Kill;
        const long after = std::strtol(rest.c_str(), &end, 10);
        if (end == rest.c_str() || *end != '\0' || after < 0)
            return false;
        f.afterRequests = static_cast<int>(after);
        *out = f;
        return true;
    }
    if (kind != "hang" && kind != "stall")
        return false;
    f.kind = kind == "hang" ? WorkerFaultKind::Hang
                            : WorkerFaultKind::Stall;
    const long after = std::strtol(rest.c_str(), &end, 10);
    if (end == rest.c_str() || *end != ':' || after < 0)
        return false;
    f.afterRequests = static_cast<int>(after);
    const char *secondsText = end + 1;
    f.seconds = std::strtod(secondsText, &end);
    if (end == secondsText || *end != '\0' || !(f.seconds >= 0.0))
        return false;
    *out = f;
    return true;
}

bool
truncateTail(const std::string &path, std::size_t bytes)
{
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    if (ec || size <= bytes)
        return false;
    fs::resize_file(path, size - bytes, ec);
    return !ec;
}

bool
flipBit(const std::string &path, std::uint64_t bitIndex)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    if (!file)
        return false;
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    if (size <= 0)
        return false;
    const std::uint64_t bit =
        bitIndex % (static_cast<std::uint64_t>(size) * 8);
    const std::streamoff offset =
        static_cast<std::streamoff>(bit / 8);
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    file.seekp(offset);
    file.write(&byte, 1);
    return static_cast<bool>(file);
}

} // namespace tapacs::serve
