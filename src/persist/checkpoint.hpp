/**
 * @file
 * CheckpointManager: the driver-facing facade over journal + snapshots.
 *
 * A checkpoint directory holds exactly two append-only framed logs:
 *
 *     journal.qjnl    write-ahead record stream (fsync per snapshot)
 *     snapshot.qsnp   snapshot log: one frame per snapshot, the last
 *                     valid frame is the latest (fsync per snapshot)
 *
 * Protocol (driver side):
 *   1. recover(): if resuming and the snapshot log holds a snapshot,
 *      return the latest one together with the journal frames up to its
 *      position; the driver replays those to rebuild its history, then
 *      calls beginResumed(), which cuts both logs back to the recovered
 *      state. Otherwise the driver calls beginFresh().
 *   2. Every executed job / completed iteration is journaled *before*
 *      the driver proceeds: appendJob / appendIteration encode its frame
 *      into the commit buffer, in memory.
 *   3. At iteration boundaries (cadence `snapshotEveryIters`) the
 *      driver captures a RunSnapshot. writeSnapshot() stamps it with the
 *      journal position the buffered frames end at and hands the buffer
 *      and the encoded snapshot to the manager's committer thread, which
 *      beginFresh() / beginResumed() started. That thread runs the group
 *      commit while the driver computes the next iterations: it writes
 *      the frames, fsyncs the journal, appends the snapshot to the
 *      snapshot log and fsyncs that. A snapshot therefore never lands
 *      before the journal bytes it points at are durable. Every
 *      snapshot, the first one included, is committed this way. One
 *      commit is in flight at a time: the next writeSnapshot() waits for
 *      it first, and flush(), which the driver calls after its final
 *      snapshot, waits for the last one.
 *
 * Crash model: the frames appended since the last hand-off are always
 * in memory only. A process death loses them, and possibly part of the
 * commit in flight (its journal bytes, its snapshot frame, or a torn
 * tail of either); every other written frame is still in its file
 * (page cache). A death during a run's first commit can leave both
 * logs holding only their headers, which recovery reads as a fresh
 * start. After an OS crash or power loss only what the last finished
 * commit's two fsyncs covered is guaranteed. Either way recovery drops
 * a torn snapshot frame and resumes from the last snapshot whose commit
 * finished, and discards the journal frames past it; they are
 * re-executed deterministically. An exception that destroys the manager
 * is no process death: the destructor waits for the commit in flight
 * and writes, without an fsync, whatever is still buffered, which
 * leaves the bytes an unbuffered journal would have.
 *
 * Crash points (fault/crash_point.hpp) are evaluated on the caller's
 * thread only, never by the committer: kCrashJournalTornWrite once per
 * appended frame, kCrashBeforeSnapshot and kCrashSnapshotTornWrite in
 * writeSnapshot(). When one fires, the manager waits for the commit in
 * flight and writes the buffered frames before it dies, so each leaves
 * the bytes it left when every append was written at once.
 *
 * Failure policy: a missing checkpoint, or a snapshot log without a
 * complete snapshot, is a fresh start; a *corrupt* one (damaged
 * snapshot log, structurally corrupt journal, digest mismatch, journal
 * shorter than the snapshot claims) throws — recovery never silently
 * degrades to a wrong trajectory. A failed commit throws its FileError
 * from the next writeSnapshot() or flush(), and from every one after.
 */

#ifndef QISMET_PERSIST_CHECKPOINT_HPP
#define QISMET_PERSIST_CHECKPOINT_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "persist/journal.hpp"
#include "persist/snapshot.hpp"

namespace qismet {

/** Raised when recovery finds inconsistent checkpoint state. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Durability settings threaded from the run configuration. */
struct CheckpointConfig
{
    std::string dir;                    ///< checkpoint directory
    std::size_t snapshotEveryIters = 1; ///< snapshot cadence
    bool resume = false;                ///< attempt recovery first
};

/** How far a run journal has got, counting the frames that wait in
 *  memory for the next commit. */
class JournalProgress
{
  public:
    JournalProgress(std::uint64_t frames, std::uint64_t offset,
                    std::uint64_t synced_offset)
        : frames_(frames), offset_(offset), syncedOffset_(synced_offset)
    {
    }

    /** Frames appended so far (including any seeded on resume). */
    std::uint64_t frames() const { return frames_; }

    /** End offset of the journal once every appended frame is written. */
    std::uint64_t offset() const { return offset_; }

    /** End of the durable prefix: where the journal ended at the last
     *  commit known to have finished (flush() waits for the one in
     *  flight). */
    std::uint64_t syncedOffset() const { return syncedOffset_; }

  private:
    std::uint64_t frames_;
    std::uint64_t offset_;
    std::uint64_t syncedOffset_;
};

class CheckpointManager
{
  public:
    /** State recovered from disk, ready for driver replay. */
    struct Recovered
    {
        RunSnapshot snapshot;
        std::vector<JournalFrame> frames; ///< prefix up to the snapshot
        std::uint64_t snapshotLogOffset = 0; ///< end of its log frame
    };

    /** @throws CheckpointError on an empty directory or a zero
     *  snapshot cadence. */
    CheckpointManager(CheckpointConfig config,
                      std::uint64_t config_digest);

    /** Waits for the commit in flight, then writes whatever is still
     *  buffered, without an fsync. Never throws. */
    ~CheckpointManager();

    CheckpointManager(const CheckpointManager &) = delete;
    CheckpointManager &operator=(const CheckpointManager &) = delete;

    /**
     * Attempt recovery. Returns the latest snapshot + replayable
     * journal prefix, or nullopt for a fresh start (not resuming, or no
     * complete snapshot on disk yet). Reads only. @throws
     * CheckpointError, JournalError or SnapshotError on corruption, a
     * snapshot version other than kSnapshotVersion, or a
     * configuration-digest mismatch.
     */
    std::optional<Recovered> recover();

    /** Start fresh logs (truncates any previous run's files). Call
     *  this or beginResumed() once, before the first append. */
    void beginFresh();

    /** Continue the recovered logs: the journal cut back to the
     *  snapshot's offset, the snapshot log to the snapshot's frame. */
    void beginResumed(const Recovered &recovered);

    /** Journal one executed job: buffered for the next snapshot's
     *  commit, which makes it durable. @throws JournalError when the
     *  frame is over the reader's frame cap. */
    void appendJob(const JournalJobRecord &record);

    /** Journal one completed iteration, as appendJob does. */
    void appendIteration(const JournalIterationRecord &record);

    /** True when a snapshot is due at completed-iteration count `k`. */
    bool snapshotDue(std::uint64_t completed_iterations) const
    {
        return completed_iterations % config_.snapshotEveryIters == 0;
    }

    /**
     * Stamp the snapshot with the config digest and the journal position
     * the buffered frames end at, wait for the commit before this one,
     * and hand both to the committer, which writes the frames, fsyncs
     * the journal, appends the snapshot to the snapshot log and fsyncs
     * that. @throws SnapshotError, before anything is handed over, when
     * the snapshot is over the frame cap, and the FileError of a failed
     * commit.
     */
    void writeSnapshot(RunSnapshot snapshot);

    /**
     * Wait for the commit in flight: every snapshot written so far is
     * durable when this returns. @throws the FileError of a failed
     * commit, which names its file.
     */
    void flush();

    /** The journal's progress (after beginFresh / beginResumed). */
    JournalProgress journal() const
    {
        return {frames_, journalEnd_ + buffer_.size(), syncedOffset_};
    }

    /** Notes accumulated during recovery (torn-tail reports etc.). */
    const std::string &diagnostics() const { return diagnostics_; }

    std::string journalPath() const
    {
        return config_.dir + "/journal.qjnl";
    }
    std::string snapshotPath() const
    {
        return config_.dir + "/snapshot.qsnp";
    }

  private:
    class Committer;

    /** Start counting from the journal the writers just opened, and
     *  start the committer. */
    void opened();

    /** Take the frame encoded at buffer_[start..]: tear it when the
     *  torn-write crash point fires, else keep it for the next commit. */
    void appended(std::size_t start);

    /** Wait for the commit in flight, then write the buffered frames
     *  without an fsync. Never throws. */
    void drain() noexcept;

    CheckpointConfig config_;
    std::uint64_t configDigest_;
    std::optional<JournalWriter> journal_;
    std::optional<SnapshotWriter> snapshots_;
    std::string diagnostics_;

    /** Encoded journal frames not yet handed to a commit. */
    std::string buffer_;
    std::uint64_t bufferedFrames_ = 0;
    /** The snapshot frame being encoded; traded with the committer's. */
    std::string snapshotFrame_;
    std::uint64_t frames_ = 0; ///< frames appended, buffered or not
    /** Where the journal ends once every frame handed over is written:
     *  buffer_ goes after it. */
    std::uint64_t journalEnd_ = 0;
    std::uint64_t syncedOffset_ = 0; ///< see JournalProgress
    /** The first failed commit, thrown again by every later
     *  writeSnapshot() and flush(). */
    std::exception_ptr failure_;
    /** Runs every commit; null until the logs are opened. */
    std::unique_ptr<Committer> committer_;
};

} // namespace qismet

#endif // QISMET_PERSIST_CHECKPOINT_HPP
