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
 *      the driver proceeds (write-ahead, no fsync per frame).
 *   3. At iteration boundaries (cadence `snapshotEveryIters`) the
 *      driver captures a RunSnapshot; writeSnapshot() fsyncs the
 *      journal, stamps the snapshot with the now-durable journal
 *      position, appends it to the snapshot log and fsyncs that. A
 *      snapshot therefore never points past durable journal bytes.
 *
 * Crash model: after process death every written frame is still in its
 * file (page cache), at worst with one torn frame at a log's tail. After
 * an OS crash or power loss only what the last snapshot's two fsyncs
 * covered is guaranteed. Either way recovery drops a torn snapshot
 * frame and falls back to the snapshot before it, and discards the
 * journal frames past the snapshot it resumes from; they are
 * re-executed deterministically.
 *
 * Failure policy: a missing checkpoint, or a snapshot log without a
 * complete snapshot, is a fresh start; a *corrupt* one (damaged
 * snapshot log, structurally corrupt journal, digest mismatch, journal
 * shorter than the snapshot claims) throws — recovery never silently
 * degrades to a wrong trajectory.
 */

#ifndef QISMET_PERSIST_CHECKPOINT_HPP
#define QISMET_PERSIST_CHECKPOINT_HPP

#include <cstdint>
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

    /**
     * Attempt recovery. Returns the latest snapshot + replayable
     * journal prefix, or nullopt for a fresh start (not resuming, or no
     * complete snapshot on disk yet). Reads only. @throws
     * CheckpointError, JournalError or SnapshotError on corruption, a
     * snapshot version other than kSnapshotVersion, or a
     * configuration-digest mismatch.
     */
    std::optional<Recovered> recover();

    /** Start fresh logs (truncates any previous run's files). */
    void beginFresh();

    /** Continue the recovered logs: the journal cut back to the
     *  snapshot's offset, the snapshot log to the snapshot's frame. */
    void beginResumed(const Recovered &recovered);

    /** Journal one executed job (written before return; durable at
     *  the next writeSnapshot). */
    void appendJob(const JournalJobRecord &record);

    /** Journal one completed iteration (written before return; durable
     *  at the next writeSnapshot). */
    void appendIteration(const JournalIterationRecord &record);

    /** True when a snapshot is due at completed-iteration count `k`. */
    bool snapshotDue(std::uint64_t completed_iterations) const
    {
        return completed_iterations % config_.snapshotEveryIters == 0;
    }

    /**
     * fsync the journal, stamp the snapshot with the synced journal
     * position and the config digest, then append it to the snapshot
     * log and fsync that.
     */
    void writeSnapshot(RunSnapshot snapshot);

    /** The open journal (after beginFresh / beginResumed): frames and
     *  offset written so far, and the offset durable at the last
     *  snapshot. */
    const JournalWriter &journal() const { return *journal_; }

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
    CheckpointConfig config_;
    std::uint64_t configDigest_;
    std::optional<JournalWriter> journal_;
    std::optional<SnapshotWriter> snapshots_;
    std::string diagnostics_;
};

} // namespace qismet

#endif // QISMET_PERSIST_CHECKPOINT_HPP
