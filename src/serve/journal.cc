#include "serve/journal.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/frame.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace tapacs::serve
{

namespace
{

constexpr std::string_view kMagic = "TJR2";
constexpr std::uint32_t kMaxBodyBytes = 16u << 20;

void
countFsyncs(std::int64_t n)
{
    obs::MetricsRegistry::global()
        .counter("tapacs.fleet.journal_fsyncs")
        .add(n);
}

std::string
recordBody(char kind, std::uint64_t id, const std::string &payload)
{
    return strprintf("%c %llu ", kind, (unsigned long long)id) + payload;
}

/** Total body parse: "B <id> <payload>" / "E <id> <payload>". */
bool
parseBody(std::string_view body, RequestJournal::Record *out)
{
    if (body.size() < 4 || (body[0] != 'B' && body[0] != 'E') ||
        body[1] != ' ')
        return false;
    std::uint64_t id = 0;
    const char *const last = body.data() + body.size();
    const auto [end, ec] = std::from_chars(body.data() + 2, last, id);
    if (ec != std::errc() || end == last || *end != ' ')
        return false;
    out->end = body[0] == 'E';
    out->id = id;
    out->payload.assign(end + 1, last);
    return true;
}

} // namespace

Status
RequestJournal::open()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0)
        return Status();
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    const bool created = fd_ < 0 && errno == ENOENT;
    if (created)
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0)
        return Status::internal("journal: cannot open '%s': %s",
                                path_.c_str(), std::strerror(errno));
    if (created) {
        // A record fsync'd into a file whose directory entry is not
        // durable is lost with the file.
        const Status st = syncParentDirectory(path_);
        if (!st.ok()) {
            ::close(fd_);
            fd_ = -1;
            return Status::internal("journal: %s", st.message().c_str());
        }
        countFsyncs(1);
    }
    return Status();
}

void
RequestJournal::close()
{
    std::unique_lock<std::mutex> lock(mu_);
    // A sync leader is fsyncing fd_ outside the lock.
    synced_.wait(lock, [&]() { return !syncing_; });
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Status
RequestJournal::write(char kind, std::uint64_t id,
                      const std::string &payload, std::uint64_t *seq)
{
    const std::string body = recordBody(kind, id, payload);
    if (body.size() > kMaxBodyBytes)
        return Status::invalidInput(
            "journal: record body %zu bytes exceeds the %u cap",
            body.size(), kMaxBodyBytes);
    const std::string frame = encodeFrame(kMagic, body);
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0)
        return Status::internal("journal: write to a closed journal");
    // O_APPEND makes the write atomic w.r.t. other appenders, and
    // under mu_ file order is sequence order.
    const Status st = writeAll(fd_, frame);
    if (!st.ok())
        return st;
    *seq = ++written_;
    return Status();
}

Status
RequestJournal::sync(std::uint64_t seq)
{
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        if (durable_ >= seq)
            return Status();
        if (!syncFailure_.ok())
            return syncFailure_;
        if (fd_ < 0)
            return Status::internal("journal: sync of a closed journal");
        if (!syncing_)
            break;
        // The fsync in flight may have started before record seq
        // was written; wait it out and look again.
        synced_.wait(lock);
    }
    // Lead: one fsync for everything written so far. Writers keep
    // appending meanwhile; their records wait for the next leader.
    syncing_ = true;
    const std::uint64_t target = written_;
    const int fd = fd_;
    lock.unlock();
    const int rc = fsync(fd);
    const int err = errno;
    lock.lock();
    syncing_ = false;
    if (rc == 0) {
        durable_ = target;
        countFsyncs(1);
    } else {
        syncFailure_ = Status::internal("journal: fsync failed: %s",
                                        std::strerror(err));
    }
    synced_.notify_all();
    return syncFailure_;
}

Status
RequestJournal::appendBegin(std::uint64_t id,
                            const std::string &manifestLine)
{
    std::uint64_t seq = 0;
    const Status st = write('B', id, manifestLine, &seq);
    return st.ok() ? sync(seq) : st;
}

Status
RequestJournal::appendEnd(std::uint64_t id,
                          const std::string &outcomeBytes)
{
    std::uint64_t seq = 0;
    const Status st = write('E', id, outcomeBytes, &seq);
    return st.ok() ? sync(seq) : st;
}

RequestJournal::ScanResult
RequestJournal::scan(const std::string &path)
{
    ScanResult out;
    std::string bytes;
    if (!readFile(path, &bytes).ok())
        return out; // no journal yet = nothing to replay
    const std::string_view view = bytes;
    std::size_t pos = 0;
    while (pos < view.size()) {
        const DecodedFrame frame =
            decodeFrame(view.substr(pos), kMagic, kMaxBodyBytes);
        if (frame.check == FrameCheck::Torn) {
            // A crash mid-append. Nothing after it can exist, so
            // stop (not a corrupt skip).
            out.tornTail = true;
            break;
        }
        Record record;
        if (frame.check == FrameCheck::Ok &&
            parseBody(frame.payload, &record)) {
            out.records.push_back(std::move(record));
            pos += frame.consumed;
            continue;
        }
        // Re-anchor on the next magic. A false anchor inside a
        // payload fails its length cap or CRC and re-anchors again;
        // pos strictly advances, so the scan terminates.
        ++out.corruptSkipped;
        pos = std::min(view.find(kMagic, pos + 1), view.size());
    }
    return out;
}

Status
RequestJournal::rewrite(const std::string &path,
                        const std::vector<Record> &records)
{
    std::string bytes;
    for (const Record &record : records)
        bytes += encodeFrame(kMagic, recordBody(record.end ? 'E' : 'B',
                                                record.id, record.payload));
    const Status st = replaceFile(path, path + ".tmp", bytes, true);
    if (st.ok())
        countFsyncs(2); // the temp's and the directory's
    return st;
}

} // namespace tapacs::serve
