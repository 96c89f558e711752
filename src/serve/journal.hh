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
 * Writing and making durable are two steps. write() appends a record
 * (one O_APPEND write, no fsync) and hands back its sequence number;
 * sync(seq) is the group commit: it returns once every record up to
 * seq is on disk, and one fsync covers every record written before
 * it started, so concurrent callers share fsyncs instead of queueing
 * for one each. appendBegin/appendEnd are write + sync. The
 * supervisor builds its two invariants on the split — a request is
 * queued only once its begin record is durable, and its outcome is
 * visible only once its end record is — while writing records under
 * its own lock and syncing outside it. A failed fsync poisons the
 * journal: the kernel may have dropped the dirty pages, so every
 * later sync() reports the failure rather than a durability it
 * cannot vouch for. Each fsync that succeeds, the directory's
 * included, counts in tapacs.fleet.journal_fsyncs.
 *
 * The file itself is durable too: open() fsyncs the directory after
 * creating it, and rewrite() after renaming a compacted journal into
 * place. scan() is total: a torn tail (crash mid-write) truncates
 * cleanly, and a corrupt record in the middle (bit rot) is skipped by
 * re-anchoring on the next magic — each skip is counted so the
 * supervisor can surface a typed diagnostic instead of dying.
 * rewrite() compacts via temp + rename, the same torn-write-safe
 * publish the disk cache uses.
 */

#ifndef TAPACS_SERVE_JOURNAL_HH
#define TAPACS_SERVE_JOURNAL_HH

#include <condition_variable>
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

    /** Open for appending; a journal it creates has its directory
     *  entry fsync'd before this returns Ok. */
    Status open();
    /** Close, after any fsync in flight. */
    void close();
    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /**
     * Append one record — @p kind 'B' (begin) or 'E' (end) — without
     * waiting for the disk, and set @p *seq to its sequence number
     * (1, 2, ... in file order). Not durable until sync(*seq).
     */
    Status write(char kind, std::uint64_t id, const std::string &payload,
                 std::uint64_t *seq);
    /**
     * Group commit: return once every record up to @p seq is
     * durable. Returns at once if one already is; waits out an fsync
     * in flight and checks again; otherwise leads one fsync (outside
     * the lock) that covers every record written so far.
     */
    Status sync(std::uint64_t seq);

    /** Durably record "request @p id admitted as @p manifestLine". */
    Status appendBegin(std::uint64_t id, const std::string &manifestLine);
    /** Durably record "request @p id resolved as @p outcomeBytes". */
    Status appendEnd(std::uint64_t id, const std::string &outcomeBytes);

    /** Total scan of @p path; a missing file is an empty result. */
    static ScanResult scan(const std::string &path);

    /**
     * Atomically and durably replace @p path with exactly @p
     * records (temp + rename; the temp and the directory fsync'd).
     * Used for compaction after a damaged replay and for clearing a
     * fully-delivered journal.
     */
    static Status rewrite(const std::string &path,
                          const std::vector<Record> &records);

  private:
    std::string path_;
    int fd_ = -1;
    std::mutex mu_;
    std::condition_variable synced_; ///< an fsync finished
    /** Sequence number of the newest record written. */
    std::uint64_t written_ = 0;
    /** Every record up to this one is durable. */
    std::uint64_t durable_ = 0;
    /** A leader is fsyncing outside mu_. */
    bool syncing_ = false;
    /** The first fsync failure, reported by every later sync(). */
    Status syncFailure_;
};

} // namespace tapacs::serve

#endif // TAPACS_SERVE_JOURNAL_HH
