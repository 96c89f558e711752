/**
 * @file
 * Durable append-only request journal for the serving fleet.
 *
 * The supervisor appends a *begin* record when it admits a request
 * and an *end* record when the request resolves; a supervisor that
 * crashed mid-batch replays the journal on restart: ids with both
 * records resolve immediately from the stored outcome, ids with only
 * a begin re-execute — safe, because compiles are deterministic and
 * idempotent through the content-addressed cache, so the re-executed
 * outcome is bit-identical to whatever the lost run would have
 * produced. Together that gives exactly-once *typed outcomes* on top
 * of at-least-once execution.
 *
 * Each record is one `TJR2` frame (common/frame.hh holds the format
 * table) whose body is "B <id> <manifest-line>" for a begin and
 * "E <id> <outcome-bytes>" (wire encodeOutcome format) for an end.
 *
 * Appends are fsync'd, so a record that appendBegin/appendEnd
 * reported Ok for survives power loss. scan() is total: a torn tail
 * (crash mid-append) truncates cleanly, and a corrupt record in the
 * middle (bit rot) is skipped by re-anchoring on the next magic —
 * each skip is counted so the supervisor can surface a typed
 * diagnostic instead of dying. rewrite() compacts via temp + rename,
 * the same torn-write-safe publish the disk cache uses.
 */

#ifndef TAPACS_SERVE_JOURNAL_HH
#define TAPACS_SERVE_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"

namespace tapacs::serve
{

/** Append-only journal writer + offline scanner; see file comment. */
class RequestJournal
{
  public:
    struct Record
    {
        std::uint64_t id = 0;
        /** false = begin (payload is the rendered manifest line),
         *  true = end (payload is the encoded outcome). */
        bool end = false;
        std::string payload;
    };

    struct ScanResult
    {
        /** Well-formed records, in file order. */
        std::vector<Record> records;
        /** Corrupt records skipped by magic re-anchoring. */
        int corruptSkipped = 0;
        /** The file ended mid-record (crash during an append). */
        bool tornTail = false;
    };

    explicit RequestJournal(std::string path) : path_(std::move(path)) {}
    ~RequestJournal() { close(); }

    RequestJournal(const RequestJournal &) = delete;
    RequestJournal &operator=(const RequestJournal &) = delete;

    /** Open (create if missing) for appending. */
    Status open();
    void close();
    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /** Durably record "request @p id admitted as @p manifestLine". */
    Status appendBegin(std::uint64_t id, const std::string &manifestLine);
    /** Durably record "request @p id resolved as @p outcomeBytes". */
    Status appendEnd(std::uint64_t id, const std::string &outcomeBytes);

    /** Total scan of @p path; a missing file is an empty result. */
    static ScanResult scan(const std::string &path);

    /**
     * Atomically replace @p path with exactly @p records (temp +
     * rename, fsync'd). Used for compaction after replay and for
     * clearing a fully-delivered journal.
     */
    static Status rewrite(const std::string &path,
                          const std::vector<Record> &records);

  private:
    Status append(char kind, std::uint64_t id,
                  const std::string &payload);

    std::string path_;
    int fd_ = -1;
    std::mutex mu_;
};

} // namespace tapacs::serve

#endif // TAPACS_SERVE_JOURNAL_HH
