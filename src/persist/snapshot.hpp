/**
 * @file
 * Full run snapshot: everything VqeDriver needs to continue a run
 * bit-identically from an iteration boundary.
 *
 * The snapshot pairs with the journal: it records *how many journal
 * frames* (and bytes) were durable when it was taken, so recovery can
 * replay exactly that prefix to rebuild the result history and then
 * truncate the journal to the snapshot's offset before appending.
 *
 * Component state that the driver does not own — tuning-policy
 * calibration (thresholds, the adaptive threshold's bounded window,
 * Kalman state) and optimizer internals (SPSA perturbation vectors,
 * Hessian accumulators) — is carried as opaque blobs produced by each
 * component's saveState(). None of it grows with the run, so a
 * snapshot has the same size at any run length. The RNG positions are
 * explicit: the serially-advanced optimizer stream is saved in full,
 * while the job executor and fault injector need only counters because
 * their root generators are never advanced (all per-job randomness is a
 * counter-based splitAt of an immutable root — the property that makes
 * resumed runs provably bit-identical at any thread count).
 *
 * On disk the snapshots form an append-only framed log
 * (persist/framed_log.hpp, DESIGN.md §10) with magic "QSNP", the config
 * digest in its header and one frame per snapshot, under the default
 * 1 MiB frame cap. The last valid frame is the latest snapshot: a torn
 * final frame (a crash mid-append) falls back to the one before it,
 * and any other damage is a SnapshotError.
 */

#ifndef QISMET_PERSIST_SNAPSHOT_HPP
#define QISMET_PERSIST_SNAPSHOT_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "persist/framed_log.hpp"

namespace qismet {

/** Raised when a snapshot file is unreadable or corrupt. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Snapshot format version; bump on any field change. Version 1 was a
 *  bespoke container; version 2 a one-frame framed log whose policy
 *  blob carried the transient history; version 3 is an append-only log
 *  of fixed-size snapshots. */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/** Serializable state of one run at an optimizer-iteration boundary. */
struct RunSnapshot
{
    std::uint64_t configDigest = 0;

    // --- journal coupling -------------------------------------------
    std::uint64_t journalFrames = 0; ///< durable frames at capture time
    std::uint64_t journalOffset = 0; ///< durable bytes at capture time

    // --- driver loop state ------------------------------------------
    std::uint64_t iteration = 0; ///< completed optimizer iterations
    std::int64_t evalIndex = 0;
    std::vector<double> theta;
    std::vector<double> prevPoint;
    bool havePrev = false;
    double ePrev = 0.0;
    bool haveIterPrev = false;
    double eIterPrev = 0.0;

    // --- result accumulators ----------------------------------------
    std::uint64_t jobsUsed = 0;
    std::uint64_t retriesUsed = 0;
    std::uint64_t rejections = 0;
    std::uint64_t faultsSeen = 0;
    std::uint64_t faultRetries = 0;
    std::uint64_t evalsCarriedForward = 0;
    double simTimeSeconds = 0.0;
    double backoffSeconds = 0.0;

    // --- stream positions -------------------------------------------
    RngState optimizerRng;               ///< serially-advanced stream
    std::uint64_t executorJobs = 0;      ///< fault-schedule cursor
    std::uint64_t executorCircuits = 0;

    // --- opaque component state -------------------------------------
    std::string policyState;    ///< TuningPolicy::saveState blob
    std::string optimizerState; ///< StochasticOptimizer::saveState blob

    /** Serialize to the on-disk payload. */
    std::string encode() const;
    void encode(Encoder &enc) const;

    /** @throws SnapshotError on truncated or malformed payload. */
    static RunSnapshot decode(std::string_view payload);
};

/** What a scan of a snapshot log found. */
struct SnapshotLogScan
{
    std::optional<RunSnapshot> latest; ///< the last valid frame, if any
    std::size_t frames = 0;            ///< valid frames in the log
    std::uint64_t cleanOffset = 0;     ///< offset after the last of them
    bool tornTail = false;
    std::string diagnostic; ///< torn-tail note for the recovery log, or ""
};

/**
 * Read a snapshot log and decode its latest snapshot.
 * @throws SnapshotError when the log cannot be read, is corrupt (see
 *         framed_log.hpp), is of another version, or when the latest
 *         snapshot's config digest is not the header's.
 */
SnapshotLogScan scanSnapshotLog(const std::string &path);

/**
 * The latest snapshot in a snapshot log.
 * @throws SnapshotError as scanSnapshotLog does, and when the log holds
 *         no complete snapshot.
 */
RunSnapshot loadSnapshotFile(const std::string &path);

/**
 * Append side of the snapshot log: encode() encodes a snapshot's frame,
 * append() writes it without an fsync, sync() makes it durable.
 */
class SnapshotWriter
{
  public:
    /**
     * Mode Truncate starts a fresh log (writes the header); Append cuts
     * an existing one back to `offset`, the end of its last valid frame.
     */
    SnapshotWriter(const std::string &path, std::uint64_t config_digest,
                   DurableFile::Mode mode, std::uint64_t offset = 0);

    /** Encode the snapshot's frame onto the end of `frame`, without
     *  writing it. @throws SnapshotError, leaving `frame` as it was,
     *  when it is over the frame cap. */
    void encode(const RunSnapshot &snapshot, std::string &frame) const;

    /** Write a frame encode() encoded; in the file when it returns.
     *  Evaluates no crash point (see JournalWriter::append). */
    void append(std::string_view frame) { log_.append(frame); }

    /** Die mid-append at kCrashSnapshotTornWrite: half of `frame`
     *  written and fsynced. */
    [[noreturn]] void tear(std::string_view frame);

    void sync() { log_.sync(); }

  private:
    FramedLogWriter log_;
};

} // namespace qismet

#endif // QISMET_PERSIST_SNAPSHOT_HPP
