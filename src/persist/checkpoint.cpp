#include "persist/checkpoint.hpp"

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <utility>

#include "common/thread_pool.hpp"
#include "fault/crash_point.hpp"

namespace qismet {

namespace {

/**
 * One group commit, the same sequence on whichever thread runs it: the
 * buffered journal frames, the journal's fsync (which returns at once
 * when nothing is new), the snapshot frame, the snapshot log's fsync.
 * Evaluates no crash point.
 */
void
commit(JournalWriter &journal, SnapshotWriter &snapshots,
       std::string_view frames, std::uint64_t count,
       std::string_view snapshot_frame)
{
    if (!frames.empty())
        journal.appendEncoded(frames, count);
    journal.sync();
    snapshots.appendEncoded(snapshot_frame);
    snapshots.sync();
}

} // namespace

/**
 * The thread that runs a manager's commits after its first, one at a
 * time. start() trades the driver's buffers for the ones the last
 * commit used, so a warm commit allocates nothing. Its thread is the one
 * worker of a ThreadPool, held by a single long task; it touches the
 * writers only between start() and the finish() after it, and never a
 * crash point (CrashPoints keeps unsynchronized state).
 */
class CheckpointManager::Committer
{
  public:
    Committer(JournalWriter &journal, SnapshotWriter &snapshots)
        : journal_(journal), snapshots_(snapshots)
    {
        thread_.submit([this] { run(); });
    }

    /** Finishes the commit in flight, then stops the thread. */
    ~Committer()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        changed_.notify_all();
        // thread_, the last member, is destroyed first: it joins the
        // worker once run() returns.
    }

    Committer(const Committer &) = delete;
    Committer &operator=(const Committer &) = delete;

    /** Commit `count` frames and a snapshot frame, taking the buffers
     *  and handing back the last commit's. Only after finish(). */
    void start(std::string &frames, std::uint64_t count,
               std::string &snapshot_frame)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            frames_.swap(frames);
            count_ = count;
            snapshotFrame_.swap(snapshot_frame);
            busy_ = true;
        }
        changed_.notify_all();
    }

    /** Wait for the commit in flight, if any; its error, or null. */
    std::exception_ptr finish()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait(lock, [this] { return !busy_; });
        return std::exchange(error_, nullptr);
    }

  private:
    void run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            changed_.wait(lock, [this] { return busy_ || stop_; });
            if (!busy_)
                return;
            lock.unlock();
            std::exception_ptr error;
            try {
                commit(journal_, snapshots_, frames_, count_,
                       snapshotFrame_);
            }
            catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            error_ = error;
            busy_ = false;
            changed_.notify_all();
        }
    }

    JournalWriter &journal_;
    SnapshotWriter &snapshots_;
    std::mutex mutex_;
    std::condition_variable changed_;
    bool busy_ = false; ///< a commit is queued or running
    bool stop_ = false;
    std::exception_ptr error_;
    std::string frames_;
    std::uint64_t count_ = 0;
    std::string snapshotFrame_;
    ThreadPool thread_{1};
};

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

CheckpointManager::~CheckpointManager()
{
    drain();
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
    opened();
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
    opened();
}

void
CheckpointManager::opened()
{
    // The writers fsync what they open, and nothing is buffered yet.
    frames_ = journal_->frames();
    journalEnd_ = journal_->offset();
    syncedOffset_ = journalEnd_;
}

void
CheckpointManager::appendJob(const JournalJobRecord &record)
{
    const std::size_t start = buffer_.size();
    journal_->encodeJob(record, buffer_);
    appended(start);
}

void
CheckpointManager::appendIteration(const JournalIterationRecord &record)
{
    const std::size_t start = buffer_.size();
    journal_->encodeIteration(record, buffer_);
    appended(start);
}

void
CheckpointManager::appended(std::size_t start)
{
    if (CrashPoints::fires(kCrashJournalTornWrite)) {
        // Die mid-append behind every earlier frame, as a journal that
        // wrote each frame at once would.
        const std::string frame = buffer_.substr(start);
        buffer_.resize(start);
        drain();
        journal_->tear(frame);
    }
    if (committer_ == nullptr) {
        // Before the first snapshot, buffer_ holds just this frame.
        try {
            journal_->appendEncoded(buffer_, 1);
        }
        catch (...) {
            buffer_.clear();
            throw;
        }
        journalEnd_ += buffer_.size();
        buffer_.clear();
    }
    else {
        ++bufferedFrames_;
    }
    ++frames_;
}

void
CheckpointManager::writeSnapshot(RunSnapshot snapshot)
{
    if (CrashPoints::fires(kCrashBeforeSnapshot)) {
        drain();
        CrashPoints::crash(kCrashBeforeSnapshot);
    }
    snapshot.configDigest = configDigest_;
    snapshot.journalFrames = frames_;
    snapshot.journalOffset = journalEnd_ + buffer_.size();
    snapshotFrame_.clear();
    snapshots_->encode(snapshot, snapshotFrame_);
    if (CrashPoints::fires(kCrashSnapshotTornWrite)) {
        drain();
        journal_->sync();
        snapshots_->tear(snapshotFrame_);
    }
    flush();
    if (committer_ != nullptr) {
        committer_->start(buffer_, bufferedFrames_, snapshotFrame_);
        buffer_.clear();
    }
    else {
        try {
            commit(*journal_, *snapshots_, buffer_, bufferedFrames_,
                   snapshotFrame_);
        }
        catch (...) {
            failure_ = std::current_exception();
            throw;
        }
        syncedOffset_ = snapshot.journalOffset;
        committer_ = std::make_unique<Committer>(*journal_, *snapshots_);
    }
    journalEnd_ = snapshot.journalOffset;
    bufferedFrames_ = 0;
}

void
CheckpointManager::flush()
{
    if (committer_ != nullptr && !failure_) {
        failure_ = committer_->finish();
        if (!failure_)
            syncedOffset_ = journalEnd_;
    }
    if (failure_)
        std::rethrow_exception(failure_);
}

void
CheckpointManager::drain() noexcept
{
    if (committer_ != nullptr && !failure_)
        failure_ = committer_->finish();
    // Past a failed commit the journal may lack that commit's frames,
    // and recovery discards everything after the last snapshot anyway.
    if (failure_ || buffer_.empty())
        return;
    try {
        journal_->appendEncoded(buffer_, bufferedFrames_);
        journalEnd_ += buffer_.size();
    }
    catch (...) {
        // Never thrown from a destructor: the frames stay out, as a
        // process death would leave them.
    }
    buffer_.clear();
    bufferedFrames_ = 0;
}

} // namespace qismet
