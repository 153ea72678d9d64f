/**
 * @file
 * Write-ahead run journal: one framed, checksummed record per executed
 * job and per completed optimizer iteration.
 *
 * File layout (all integers little-endian):
 *
 *     header   := magic "QJNL" | u32 version | u64 configDigest
 *                 | u64 fnv1a(preceding 16 bytes)                 (24 B)
 *     frame    := u8 type | u32 payloadLen | payload
 *                 | u64 fnv1a(type byte + payload)
 *
 * Appends go through DurableFile without an fsync per frame: the
 * journal is group-committed. JournalWriter::sync() makes every frame
 * written so far durable, and CheckpointManager calls it right before
 * each snapshot, which records the synced offset. What a crash leaves:
 *
 *  - process death (kill -9, std::_Exit): written frames stay in the
 *    page cache, so the file is the whole logical journal plus at most
 *    one torn (partial) frame at the tail.
 *  - OS crash or power loss: the bytes up to the last sync() are
 *    durable; frames written since then may be lost, cut short or
 *    garbled. They all lie past the last snapshot, which recovery
 *    discards and re-executes anyway. Garbled bytes there fail closed
 *    in the reader below: a torn tail is dropped, anything else
 *    throws JournalError rather than misparse.
 *
 * Reader semantics (scanJournal) — fail closed, recover only what is
 * provably a crash artifact:
 *
 *  - missing/short/garbled *header*  -> JournalError (no valid prefix
 *    exists; nothing can be trusted).
 *  - frame that runs past end-of-file, or a trailing fragment shorter
 *    than a minimal frame, or a checksum-bad frame that ends exactly
 *    at EOF -> torn tail: the partial record is discarded and reported
 *    in the scan diagnostics.
 *  - anything else (unknown frame type, implausible length, checksum
 *    mismatch with more data after it) cannot be produced by a torn
 *    append -> JournalError. Corruption is never silently skipped.
 */

#ifndef QISMET_PERSIST_JOURNAL_HPP
#define QISMET_PERSIST_JOURNAL_HPP

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/serial.hpp"

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
 * @throws JournalError on structural corruption (see file comment).
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

    /** fsync the journal: every frame written so far becomes durable. */
    void sync() { file_.sync(); }

    /** Frames written so far (including any seeded on resume). */
    std::uint64_t frames() const { return frames_; }

    /** Current end-of-journal offset (written, not necessarily synced). */
    std::uint64_t offset() const { return file_.offset(); }

    /** End offset of the durable prefix: the offset at the last sync(). */
    std::uint64_t syncedOffset() const { return file_.syncedOffset(); }

  private:
    void appendFrame(JournalFrameType type, const std::string &payload);

    DurableFile file_;
    std::uint64_t frames_ = 0;
};

/** Serialized size of the fixed journal header. */
inline constexpr std::uint64_t kJournalHeaderSize = 24;

/** Encode the 24-byte header for the given config digest. */
std::string encodeJournalHeader(std::uint64_t config_digest);

} // namespace qismet

#endif // QISMET_PERSIST_JOURNAL_HPP
