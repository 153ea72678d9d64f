#include "persist/checkpoint.hpp"

#include <filesystem>

#include "fault/crash_point.hpp"

namespace qismet {

CheckpointManager::CheckpointManager(CheckpointConfig config,
                                     std::uint64_t config_digest)
    : config_(std::move(config)), configDigest_(config_digest)
{
    if (config_.dir.empty())
        throw CheckpointError("checkpoint directory must not be empty");
    if (config_.snapshotEveryIters == 0)
        throw CheckpointError("checkpoint snapshotEveryIters must be >= 1");
    std::filesystem::create_directories(config_.dir);
}

std::optional<CheckpointManager::Recovered>
CheckpointManager::recover()
{
    if (!config_.resume)
        return std::nullopt;
    const bool haveJournal = fileExists(journalPath());
    const bool haveSnapshots = fileExists(snapshotPath());
    SnapshotLogScan log;
    if (haveSnapshots) {
        log = scanSnapshotLog(snapshotPath());
        if (log.tornTail)
            diagnostics_ += "snapshot log " + log.diagnostic + "\n";
    }
    if (!log.latest) {
        // Nothing durable yet (a virgin directory resumes "if
        // possible"), or the run died before its first snapshot landed:
        // the journal alone cannot seed component state, so start over.
        if (haveJournal || haveSnapshots)
            diagnostics_ += "no snapshot in '" + config_.dir +
                            "' yet; restarting from scratch\n";
        return std::nullopt;
    }
    if (!haveJournal)
        throw CheckpointError(
            "checkpoint '" + config_.dir +
            "' has a snapshot but no journal — refusing to resume");

    const RunSnapshot &snapshot = *log.latest;
    if (snapshot.configDigest != configDigest_)
        throw CheckpointError(
            "snapshot '" + snapshotPath() +
            "' belongs to a different run configuration — refusing to "
            "resume");
    if (log.tornTail)
        diagnostics_ += "resuming from the snapshot before the torn one "
                        "(iteration " +
                        std::to_string(snapshot.iteration) + ")\n";

    const JournalScanResult scan = scanJournal(journalPath());
    if (scan.configDigest != configDigest_)
        throw CheckpointError(
            "journal '" + journalPath() +
            "' belongs to a different run configuration — refusing to "
            "resume");
    if (scan.tornTail)
        diagnostics_ += scan.diagnostic + "\n";

    if (scan.frames.size() < snapshot.journalFrames)
        throw CheckpointError(
            "journal '" + journalPath() + "' holds " +
            std::to_string(scan.frames.size()) +
            " valid frames but the snapshot was taken at " +
            std::to_string(snapshot.journalFrames) +
            " — journal and snapshot disagree");
    if (scan.cleanOffset < snapshot.journalOffset)
        throw CheckpointError(
            "journal '" + journalPath() +
            "' is shorter than the snapshot's recorded offset");

    Recovered recovered;
    recovered.snapshot = snapshot;
    recovered.frames.assign(
        scan.frames.begin(),
        scan.frames.begin() +
            static_cast<std::ptrdiff_t>(snapshot.journalFrames));
    recovered.snapshotLogOffset = log.cleanOffset;
    const std::uint64_t replayed = snapshot.journalFrames;
    if (scan.frames.size() > replayed)
        diagnostics_ +=
            "discarding " +
            std::to_string(scan.frames.size() - replayed) +
            " journal frames past the last snapshot (they will be "
            "re-executed deterministically)\n";
    return recovered;
}

void
CheckpointManager::beginFresh()
{
    // The snapshot log first: a crash between the two truncations
    // leaves a log without a snapshot, which recovery reads as a fresh
    // start, never an old snapshot beside a new journal.
    snapshots_.emplace(snapshotPath(), configDigest_,
                       DurableFile::Mode::Truncate);
    journal_.emplace(journalPath(), configDigest_,
                     DurableFile::Mode::Truncate);
}

void
CheckpointManager::beginResumed(const Recovered &recovered)
{
    snapshots_.emplace(snapshotPath(), configDigest_,
                       DurableFile::Mode::Append,
                       recovered.snapshotLogOffset);
    journal_.emplace(journalPath(), configDigest_,
                     DurableFile::Mode::Append,
                     recovered.snapshot.journalOffset,
                     recovered.snapshot.journalFrames);
}

void
CheckpointManager::appendJob(const JournalJobRecord &record)
{
    journal_->appendJob(record);
}

void
CheckpointManager::appendIteration(const JournalIterationRecord &record)
{
    journal_->appendIteration(record);
}

void
CheckpointManager::writeSnapshot(RunSnapshot snapshot)
{
    CrashPoints::hit(kCrashBeforeSnapshot);
    // Group commit: the one journal fsync per snapshot, before the
    // snapshot can point at the frames it covers.
    journal_->sync();
    snapshot.configDigest = configDigest_;
    snapshot.journalFrames = journal_->frames();
    snapshot.journalOffset = journal_->syncedOffset();
    snapshots_->append(snapshot);
    snapshots_->sync();
}

} // namespace qismet
