/**
 * @file
 * Write-ahead run journal: one framed, checksummed record per executed
 * job and per completed optimizer iteration.
 *
 * The journal is a framed log (persist/framed_log.hpp) with magic
 * "QJNL" and the run's config digest in its header. It is
 * group-committed: appends carry no fsync, and sync() makes every frame
 * written so far durable. CheckpointManager encodes a run's frames into
 * memory and each snapshot's commit writes them in one appendEncoded()
 * and syncs, right before the snapshot frame. DESIGN.md §10 sets out
 * what a process death or an OS crash leaves: never more than the
 * frames past the last snapshot, which recovery discards and
 * re-executes, and a reader that drops a torn tail and throws
 * JournalError on anything else.
 */

#ifndef QISMET_PERSIST_JOURNAL_HPP
#define QISMET_PERSIST_JOURNAL_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/serial.hpp"
#include "persist/framed_log.hpp"

namespace qismet {

/** Raised when a journal is structurally invalid (not merely torn). */
class JournalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Journal format version; bump on any frame-layout change. */
inline constexpr std::uint32_t kJournalVersion = 1;

/** Frame types. */
enum class JournalFrameType : std::uint8_t
{
    Job = 1,       ///< one executed job (accepted / rejected / faulted)
    Iteration = 2, ///< one completed optimizer iteration
};

/** Payload of a Job frame: the full audit record for one executed job. */
struct JournalJobRecord
{
    std::uint64_t jobIndex = 0;
    std::int64_t evalIndex = 0;
    std::int64_t retryIndex = 0;
    double transientIntensity = 0.0;
    double eMeasured = 0.0;
    bool accepted = false;
    std::uint8_t status = 0; ///< JobStatus as stored in the trace
    bool carriedForward = false;
    double shotFraction = 1.0;
    double transientEstimate = 0.0;
    bool hasReference = false;
    double eReference = 0.0;
    std::vector<double> point; ///< parameters the job evaluated

    void encode(Encoder &enc) const;
    static JournalJobRecord decode(Decoder &dec);
};

/** Payload of an Iteration frame. */
struct JournalIterationRecord
{
    std::uint64_t iteration = 0;
    double eReported = 0.0; ///< energy pushed to iterationEnergies
    bool moveAccepted = false;

    void encode(Encoder &enc) const;
    static JournalIterationRecord decode(Decoder &dec);
};

/** One decoded frame plus its end offset in the file. */
struct JournalFrame
{
    JournalFrameType type = JournalFrameType::Job;
    std::string payload;
    std::uint64_t endOffset = 0; ///< byte offset just past this frame
};

/** Result of scanning a journal file. */
struct JournalScanResult
{
    std::uint64_t configDigest = 0;
    std::vector<JournalFrame> frames;
    std::uint64_t cleanOffset = 0; ///< offset after the last valid frame
    bool tornTail = false;
    std::uint64_t droppedBytes = 0;
    std::string diagnostic; ///< human-readable torn-tail note, if any
};

/**
 * Scan a journal file, validating header and every frame checksum.
 * @throws JournalError on structural corruption (see framed_log.hpp).
 */
JournalScanResult scanJournal(const std::string &path);

/**
 * Append-side of the journal. Each append* call writes one frame
 * without an fsync; sync() makes every frame written so far durable
 * (group commit, one fsync per snapshot; see the file comment).
 */
class JournalWriter
{
  public:
    /**
     * Open `path`. Mode Truncate starts a fresh journal (writes the
     * header); Append continues an existing one at `offset` (recovery
     * truncates the torn tail first). `frames` seeds the frame count.
     */
    JournalWriter(const std::string &path, std::uint64_t config_digest,
                  DurableFile::Mode mode, std::uint64_t offset = 0,
                  std::uint64_t frames = 0);

    /**
     * Append one frame. @throws JournalError, before writing any byte,
     * when the encoded record is larger than the reader's frame cap.
     */
    void appendJob(const JournalJobRecord &record);
    void appendIteration(const JournalIterationRecord &record);

    /**
     * Encode the frame appendJob / appendIteration would write onto the
     * end of `frames`, without writing it (see encodeFrameInto).
     * @throws JournalError, leaving `frames` as it was, when the frame
     * is over the reader's frame cap.
     */
    void encodeJob(const JournalJobRecord &record,
                   std::string &frames) const;
    void encodeIteration(const JournalIterationRecord &record,
                         std::string &frames) const;

    /**
     * Write `count` frames encoded by encodeJob / encodeIteration, in
     * one write; like appendJob, they are in the file when it returns.
     * Evaluates no crash point: a caller that batches frames evaluates
     * kCrashJournalTornWrite as it encodes each one.
     */
    void appendEncoded(std::string_view frames, std::uint64_t count);

    /** Die mid-append at kCrashJournalTornWrite, as appendJob does when
     *  it fires: half of `frame` written and fsynced. */
    [[noreturn]] void tear(std::string_view frame) { log_.tear(frame); }

    /** fsync the journal: every frame written so far becomes durable. */
    void sync() { log_.sync(); }

    /** Frames written so far (including any seeded on resume). */
    std::uint64_t frames() const { return frames_; }

    /** Current end-of-journal offset (written, not necessarily synced). */
    std::uint64_t offset() const { return log_.offset(); }

    /** End offset of the durable prefix: the offset at the last sync(). */
    std::uint64_t syncedOffset() const { return log_.syncedOffset(); }

  private:
    FramedLogWriter log_;
    std::uint64_t frames_ = 0;
};

} // namespace qismet

#endif // QISMET_PERSIST_JOURNAL_HPP
