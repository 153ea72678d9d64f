/**
 * @file
 * Crash-resume recovery suite (ctest label `recovery`): kills the VQE
 * driver at randomized iteration boundaries, mid-journal-write, just
 * before a snapshot and mid-snapshot-append, resumes from the checkpoint
 * directory,
 * and requires the recovered trajectory to be *bit-identical* to an
 * uninterrupted straight-through run — per-job records, per-iteration
 * energies, final estimate and every resilience counter — at 1, 2, 4
 * and 8 worker threads.
 *
 * Crashes are simulated through the fault layer's crash points
 * (CrashPointGuard + SimulatedCrash), which die after the journal's
 * write-ahead semantics have done whatever a real SIGKILL would have
 * allowed them to do — every written frame survives (process death
 * keeps the page cache), including a deliberately torn half-frame for
 * the mid-write cases. The snapshot tear is also dealt by a genuine
 * std::_Exit(43) in a forked child (a gtest death test).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/qismet_vqe.hpp"
#include "fault/crash_point.hpp"
#include "hamiltonian/h2_molecule.hpp"
#include "noise/machine_model.hpp"
#include "persist/checkpoint.hpp"
#include "persist/framed_log.hpp"

#include "common/scratch_dir.hpp"

namespace qismet {
namespace {

namespace fs = std::filesystem;

class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::setGlobalThreads(saved_); }

  private:
    std::size_t saved_;
};

/** Bit-exact hex image of a double, for checksum-stable CSV cells. */
std::string bits(double value)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &value, sizeof(u));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(u));
    return std::string(buf);
}

/**
 * Render a run as CSV (golden-trace layout plus every resilience
 * counter — the counters are what the carry-forward regression pins)
 * and return its FNV-1a digest.
 */
std::string trajectoryDigest(const VqeRunResult &run)
{
    std::string csv =
        "job,eval,retry,status,accepted,carried,e_measured,tau\n";
    for (const VqeJobRecord &rec : run.history) {
        csv += std::to_string(rec.jobIndex) + ',' +
               std::to_string(rec.evalIndex) + ',' +
               std::to_string(rec.retryIndex) + ',' +
               jobStatusName(rec.status) + ',' +
               (rec.accepted ? '1' : '0') + ',' +
               (rec.carriedForward ? '1' : '0') + ',' +
               bits(rec.eMeasured) + ',' + bits(rec.transientIntensity) +
               '\n';
    }
    csv += "iteration,e_reported\n";
    for (std::size_t i = 0; i < run.iterationEnergies.size(); ++i)
        csv += std::to_string(i) + ',' + bits(run.iterationEnergies[i]) +
               '\n';
    csv += "theta";
    for (const double t : run.finalTheta)
        csv += ',' + bits(t);
    csv += "\ncounters," + std::to_string(run.jobsUsed) + ',' +
           std::to_string(run.retriesUsed) + ',' +
           std::to_string(run.rejections) + ',' +
           std::to_string(run.faultsSeen) + ',' +
           std::to_string(run.faultRetries) + ',' +
           std::to_string(run.evalsCarriedForward) + ',' +
           bits(run.simTimeSeconds) + ',' + bits(run.backoffSeconds) +
           '\n';
    csv += "final," + bits(run.finalEstimate) + '\n';

    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (const char c : csv) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(buf);
}

/** H2 VQE at the golden operating point (shortened job budget). */
struct H2Scenario
{
    H2Problem problem = h2Problem(0.735);
    QismetVqe runner{problem.hamiltonian,
                     makeAnsatz("SU2", 4, 3)->build(),
                     machineModel("guadalupe"), problem.fciEnergy};

    QismetVqeConfig config() const
    {
        QismetVqeConfig cfg;
        cfg.totalJobs = 120;
        cfg.seed = 11;
        cfg.scheme = Scheme::Qismet;
        return cfg;
    }
};

/** TFIM application 1 under a mixed fault load (recovery paths live). */
struct TfimScenario
{
    Application app = application(1);
    QismetVqe runner = app.makeRunner();

    QismetVqeConfig config() const
    {
        QismetVqeConfig cfg;
        cfg.totalJobs = 120;
        cfg.seed = 23;
        cfg.scheme = Scheme::Qismet;
        cfg.faults.timeoutRate = 0.02;
        cfg.faults.errorRate = 0.01;
        cfg.faults.partialRate = 0.02;
        cfg.faults.referenceLossRate = 0.01;
        cfg.faults.burstCoupling = 1.0;
        return cfg;
    }
};

std::string freshDir(const std::string &name)
{
    return test::scratchDir("qismet_resume_" + name, false).string();
}

/** One planned simulated crash. */
struct CrashPlan
{
    const char *point;
    int countdown;
};

/**
 * Run with checkpointing, crashing per `plan`; returns true when the
 * run died at the armed point (false = it finished first).
 */
template <typename Runner>
bool runUntilCrash(const Runner &runner, QismetVqeConfig cfg,
                   const CrashPlan &plan)
{
    CrashPointGuard guard(plan.point, plan.countdown);
    try {
        (void)runner.run(cfg);
    }
    catch (const SimulatedCrash &crash) {
        EXPECT_EQ(crash.point(), plan.point);
        return true;
    }
    return false;
}

/**
 * Kill-and-resume: execute the crash plans in order against one
 * checkpoint directory, then finish the run cleanly and return it.
 */
template <typename Runner>
QismetVqeResult killAndResume(const Runner &runner, QismetVqeConfig cfg,
                              const std::string &dir,
                              const std::vector<CrashPlan> &plans,
                              int *crashes_fired = nullptr)
{
    cfg.checkpointDir = dir;
    cfg.resume = true;
    int fired = 0;
    for (const CrashPlan &plan : plans)
        fired += runUntilCrash(runner, cfg, plan) ? 1 : 0;
    if (crashes_fired != nullptr)
        *crashes_fired = fired;
    return runner.run(cfg);
}

template <typename Scenario>
void expectBitIdenticalAcrossKills(const char *name,
                                   const std::vector<CrashPlan> &plans)
{
    GlobalThreadsGuard threadsGuard;
    const Scenario scenario;

    ParallelExecutor::setGlobalThreads(1);
    const QismetVqeResult straight =
        scenario.runner.run(scenario.config());
    const std::string want = trajectoryDigest(straight.run);

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ParallelExecutor::setGlobalThreads(threads);
        const std::string dir = freshDir(
            std::string(name) + "_t" + std::to_string(threads));
        int fired = 0;
        const QismetVqeResult resumed = killAndResume(
            scenario.runner, scenario.config(), dir, plans, &fired);
        EXPECT_GT(fired, 0)
            << name << ": no crash fired — plans never exercised resume";
        EXPECT_EQ(trajectoryDigest(resumed.run), want)
            << name << " at " << threads
            << " threads: resumed trajectory diverged from the "
               "straight-through run";
        EXPECT_DOUBLE_EQ(resumed.run.finalEstimate,
                         straight.run.finalEstimate);
        fs::remove_all(dir);
    }
}

TEST(CrashResume, H2KillsAtRandomIterationBoundaries)
{
    // Randomized (seeded) boundary kills, three crash-resume cycles
    // before the final clean leg.
    Rng rng(101);
    std::vector<CrashPlan> plans;
    for (int i = 0; i < 3; ++i)
        plans.push_back({kCrashIterationBoundary,
                         2 + static_cast<int>(rng.uniformInt(8))});
    expectBitIdenticalAcrossKills<H2Scenario>("h2_boundary", plans);
}

TEST(CrashResume, TfimWithFaultsKillsAtRandomIterationBoundaries)
{
    Rng rng(202);
    std::vector<CrashPlan> plans;
    for (int i = 0; i < 3; ++i)
        plans.push_back({kCrashIterationBoundary,
                         2 + static_cast<int>(rng.uniformInt(8))});
    expectBitIdenticalAcrossKills<TfimScenario>("tfim_boundary", plans);
}

TEST(CrashResume, TornJournalWriteRecoversBitIdentically)
{
    // Die halfway through a journal append (a torn frame lands on
    // disk), then again right before a snapshot replace.
    const std::vector<CrashPlan> plans = {
        {kCrashJournalTornWrite, 25},
        {kCrashBeforeSnapshot, 6},
    };
    expectBitIdenticalAcrossKills<TfimScenario>("tfim_torn", plans);
}

TEST(CrashResume, H2TornWriteAndSnapshotCrash)
{
    const std::vector<CrashPlan> plans = {
        {kCrashJournalTornWrite, 40},
        {kCrashBeforeSnapshot, 3},
    };
    expectBitIdenticalAcrossKills<H2Scenario>("h2_torn", plans);
}

TEST(CrashResume, TornSnapshotWriteRecoversBitIdentically)
{
    // Die halfway through a snapshot append (a torn frame lands at the
    // snapshot log's tail), twice: recovery falls back to the snapshot
    // before each torn one.
    const std::vector<CrashPlan> plans = {
        {kCrashSnapshotTornWrite, 7},
        {kCrashSnapshotTornWrite, 4},
    };
    expectBitIdenticalAcrossKills<TfimScenario>("tfim_snapshot_torn",
                                                plans);
}

TEST(CrashResume, TornSnapshotWriteByProcessExitRecoversBitIdentically)
{
    // The same tear by real process death: a forked child dies in
    // std::_Exit(43) with half a snapshot frame written, and the parent
    // resumes the directory it left.
    GlobalThreadsGuard threadsGuard;
    const TfimScenario scenario;

    ParallelExecutor::setGlobalThreads(1);
    const std::string want =
        trajectoryDigest(scenario.runner.run(scenario.config()).run);

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        QismetVqeConfig cfg = scenario.config();
        cfg.checkpointDir =
            freshDir("exit_torn_t" + std::to_string(threads));
        cfg.resume = true;
        // No pool thread may be alive across the fork.
        ParallelExecutor::setGlobalThreads(1);
        EXPECT_EXIT(
            {
                ParallelExecutor::setGlobalThreads(threads);
                CrashPoints::arm(kCrashSnapshotTornWrite, 5,
                                 CrashPoints::Action::Exit);
                (void)scenario.runner.run(cfg);
            },
            ::testing::ExitedWithCode(CrashPoints::kCrashExitCode), "");
        const SnapshotLogScan log =
            scanSnapshotLog(cfg.checkpointDir + "/snapshot.qsnp");
        EXPECT_TRUE(log.tornTail) << threads << " threads";
        EXPECT_EQ(log.frames, 4u) << threads << " threads";

        ParallelExecutor::setGlobalThreads(threads);
        EXPECT_EQ(trajectoryDigest(scenario.runner.run(cfg).run), want)
            << "resume after a torn snapshot at " << threads
            << " threads diverged from the straight-through run";
        fs::remove_all(cfg.checkpointDir);
    }
}

TEST(CrashResume, TornSnapshotWriteFallsBackOneSnapshot)
{
    // Cadence 1 snapshots before iterations 0, 1, 2, ...; tearing the
    // fifth leaves four whole ones, the last before iteration 3. The
    // journal was fsynced before the tear, so it runs one iteration
    // past that snapshot; recovery discards it and re-executes it.
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(1);
    const TfimScenario scenario;
    QismetVqeConfig cfg = scenario.config();
    cfg.checkpointDir = freshDir("snapshot_fallback");
    cfg.resume = true;
    ASSERT_TRUE(runUntilCrash(scenario.runner, cfg,
                              {kCrashSnapshotTornWrite, 5}));

    CheckpointManager mgr(
        {cfg.checkpointDir, cfg.snapshotEveryIters, true},
        runConfigDigest(cfg, scenario.app.ansatzCircuit.numParams()));
    const auto recovered = mgr.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->snapshot.iteration, 3u);
    const std::string &notes = mgr.diagnostics();
    EXPECT_NE(notes.find("snapshot log torn tail"), std::string::npos)
        << notes;
    EXPECT_NE(notes.find("before the torn one (iteration 3)"),
              std::string::npos)
        << notes;
    EXPECT_NE(notes.find("journal frames past the last snapshot"),
              std::string::npos)
        << notes;

    EXPECT_EQ(trajectoryDigest(scenario.runner.run(cfg).run),
              trajectoryDigest(scenario.runner.run(scenario.config()).run));
    fs::remove_all(cfg.checkpointDir);
}

TEST(CrashResume, SparseSnapshotCadenceStillBitIdentical)
{
    // Snapshots every 3 iterations: a boundary kill loses up to two
    // journaled iterations past the snapshot, which recovery discards
    // and re-executes deterministically.
    GlobalThreadsGuard threadsGuard;
    const TfimScenario scenario;

    ParallelExecutor::setGlobalThreads(1);
    QismetVqeConfig cfg = scenario.config();
    cfg.snapshotEveryIters = 3;
    const QismetVqeResult straight = scenario.runner.run(cfg);
    const std::string want = trajectoryDigest(straight.run);

    for (const std::size_t threads : {1u, 4u}) {
        ParallelExecutor::setGlobalThreads(threads);
        const std::string dir =
            freshDir("cadence_t" + std::to_string(threads));
        const QismetVqeResult resumed = killAndResume(
            scenario.runner, cfg, dir,
            {{kCrashIterationBoundary, 5},
             {kCrashIterationBoundary, 4}});
        EXPECT_EQ(trajectoryDigest(resumed.run), want)
            << "cadence-3 resume diverged at " << threads << " threads";
        fs::remove_all(dir);
    }
}

TEST(SnapshotSize, App1FrameIsTheSameSizeAt2000And20000Jobs)
{
    // Nothing in a snapshot grows with the run (the transient estimate
    // keeps no history), so the latest snapshot has one size at the
    // paper's 2000-job length and at ten times it, well under the
    // snapshot log's 1 MiB frame cap.
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(1);
    const Application app = application(1);
    const QismetVqe runner = app.makeRunner();
    std::vector<std::size_t> sizes;
    for (const std::size_t jobs : {2000u, 20000u}) {
        QismetVqeConfig cfg;
        cfg.totalJobs = jobs;
        cfg.seed = 23;
        cfg.scheme = Scheme::Qismet;
        cfg.checkpointDir = freshDir("size_" + std::to_string(jobs));
        cfg.snapshotEveryIters = 200;
        const QismetVqeResult result = runner.run(cfg);
        ASSERT_EQ(result.run.jobsUsed, jobs);
        sizes.push_back(loadSnapshotFile(cfg.checkpointDir +
                                         "/snapshot.qsnp")
                            .encode()
                            .size());
        fs::remove_all(cfg.checkpointDir);
    }
    EXPECT_EQ(sizes[0], sizes[1]);
    EXPECT_LT(sizes[0], 2048u);
}

TEST(CrashResume, SurvivesAKillAtEveryIterationBoundary)
{
    // Walk the whole run one iteration at a time: crash on the second
    // boundary hit after every resume until the run outlives the
    // countdown, then finish cleanly. This drags the recovery path
    // across every iteration boundary the run has, including ones
    // immediately after carried-forward (past-budget) evaluations.
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(4);

    const TfimScenario scenario;
    QismetVqeConfig cfg = scenario.config();
    // Harsher fleet: frequent faults and a tiny retry budget make
    // carried-forward evaluations common instead of rare.
    cfg.faults.timeoutRate = 0.25;
    cfg.faults.errorRate = 0.12;
    cfg.retryBudget = 1;
    cfg.totalJobs = 90;

    const QismetVqeResult straight = scenario.runner.run(cfg);
    EXPECT_GT(straight.run.evalsCarriedForward, 0u)
        << "fault load too mild: carry-forward path not exercised";

    cfg.checkpointDir = freshDir("every_boundary");
    cfg.resume = true;
    int resumes = 0;
    QismetVqeResult final_result;
    for (;; ++resumes) {
        ASSERT_LT(resumes, 300) << "crash-resume loop did not converge";
        if (!runUntilCrash(scenario.runner, cfg,
                           {kCrashIterationBoundary, 2})) {
            final_result = scenario.runner.run(cfg);
            break;
        }
    }
    EXPECT_GT(resumes, 3);

    // Satellite contract: counters — including skipped/carried-forward
    // bookkeeping and retry-budget state — match the straight run
    // exactly, not just the energies.
    EXPECT_EQ(trajectoryDigest(final_result.run),
              trajectoryDigest(straight.run));
    EXPECT_EQ(final_result.run.evalsCarriedForward,
              straight.run.evalsCarriedForward);
    EXPECT_EQ(final_result.run.faultRetries, straight.run.faultRetries);
    EXPECT_EQ(final_result.run.retriesUsed, straight.run.retriesUsed);
    EXPECT_EQ(final_result.run.jobsUsed, straight.run.jobsUsed);
    EXPECT_EQ(final_result.run.faultsSeen, straight.run.faultsSeen);
    EXPECT_DOUBLE_EQ(final_result.run.backoffSeconds,
                     straight.run.backoffSeconds);
    fs::remove_all(cfg.checkpointDir);
}

TEST(CrashResume, ResumingACompletedRunReplaysItExactly)
{
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(2);

    const H2Scenario scenario;
    QismetVqeConfig cfg = scenario.config();
    const QismetVqeResult straight = scenario.runner.run(cfg);

    cfg.checkpointDir = freshDir("completed");
    cfg.resume = true;
    const QismetVqeResult first = scenario.runner.run(cfg);
    const QismetVqeResult replay = scenario.runner.run(cfg);

    EXPECT_EQ(trajectoryDigest(first.run),
              trajectoryDigest(straight.run));
    EXPECT_EQ(trajectoryDigest(replay.run),
              trajectoryDigest(straight.run));
    fs::remove_all(cfg.checkpointDir);
}

TEST(CrashResume, OutOfRangeJobStatusIsRejected)
{
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(1);

    const H2Scenario scenario;
    QismetVqeConfig cfg = scenario.config();
    cfg.checkpointDir = freshDir("bad_status");
    cfg.resume = true;
    ASSERT_TRUE(runUntilCrash(scenario.runner, cfg,
                              {kCrashIterationBoundary, 4}));

    // Re-encode the first journal frame by hand with status byte 5 (one
    // past JobStatus::ReferenceLost) and a valid checksum.
    const std::string journal = cfg.checkpointDir + "/journal.qjnl";
    const JournalFrame first = scanJournal(journal).frames.front();
    ASSERT_EQ(first.type, JournalFrameType::Job);
    Decoder dec(first.payload);
    JournalJobRecord rec = JournalJobRecord::decode(dec);
    rec.status = 5;
    Encoder payload;
    rec.encode(payload);
    const auto type = static_cast<std::uint8_t>(JournalFrameType::Job);
    Encoder frame;
    frame.writeU8(type);
    frame.writeU32(static_cast<std::uint32_t>(payload.bytes().size()));
    Encoder sum;
    sum.writeU64(fnv1a64(payload.bytes(), fnv1a64(&type, 1)));
    const std::string bytes = frame.take() + payload.bytes() + sum.bytes();
    std::string file = readFile(journal);
    file.replace(kFramedLogHeaderSize, bytes.size(), bytes);
    atomicWriteFile(journal, file);

    // A silent cast would resume it as status "?" and change the digest.
    try {
        (void)scenario.runner.run(cfg);
        FAIL() << "a journaled job status of 5 was replayed";
    }
    catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("status 5"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(cfg.checkpointDir);
}

TEST(CrashResume, OutOfRangeJournalIndicesAreRejected)
{
    // evalIndex and retryIndex are int fields journaled as i64: a value
    // past int must not narrow into a replayed record.
    struct Row
    {
        const char *want;
        void (*edit)(JournalJobRecord &);
    };
    const Row rows[] = {
        {"evalIndex 4294967296",
         [](JournalJobRecord &r) { r.evalIndex = std::int64_t{1} << 32; }},
        {"evalIndex -1", [](JournalJobRecord &r) { r.evalIndex = -1; }},
        {"retryIndex 4294967297",
         [](JournalJobRecord &r) {
             r.retryIndex = (std::int64_t{1} << 32) + 1;
         }},
    };
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(1);
    const H2Scenario scenario;
    for (const Row &row : rows) {
        SCOPED_TRACE(row.want);
        QismetVqeConfig cfg = scenario.config();
        cfg.checkpointDir = freshDir("bad_index");
        cfg.resume = true;
        ASSERT_TRUE(runUntilCrash(scenario.runner, cfg,
                                  {kCrashIterationBoundary, 4}));

        // Re-encode the first journal frame with the edited record and
        // a valid checksum.
        const std::string journal = cfg.checkpointDir + "/journal.qjnl";
        const JournalFrame first = scanJournal(journal).frames.front();
        ASSERT_EQ(first.type, JournalFrameType::Job);
        Decoder dec(first.payload);
        JournalJobRecord rec = JournalJobRecord::decode(dec);
        row.edit(rec);
        Encoder payload;
        rec.encode(payload);
        const auto type = static_cast<std::uint8_t>(JournalFrameType::Job);
        Encoder frame;
        frame.writeU8(type);
        frame.writeU32(static_cast<std::uint32_t>(payload.bytes().size()));
        Encoder sum;
        sum.writeU64(fnv1a64(payload.bytes(), fnv1a64(&type, 1)));
        const std::string bytes =
            frame.take() + payload.bytes() + sum.bytes();
        std::string file = readFile(journal);
        file.replace(kFramedLogHeaderSize, bytes.size(), bytes);
        atomicWriteFile(journal, file);

        try {
            (void)scenario.runner.run(cfg);
            ADD_FAILURE() << "the journaled record was replayed";
        }
        catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(row.want),
                      std::string::npos)
                << e.what();
        }
        fs::remove_all(cfg.checkpointDir);
    }
}

TEST(CrashResume, OutOfRangeSnapshotCountersAreRejected)
{
    // The snapshot's iteration (u64) and evalIndex (i64) become the
    // driver's int counters: a value past int must not narrow into a
    // resumed run.
    struct Row
    {
        const char *want;
        void (*edit)(RunSnapshot &);
    };
    const Row rows[] = {
        {"iteration 4294967300",
         [](RunSnapshot &s) { s.iteration = (std::uint64_t{1} << 32) + 4; }},
        {"evalIndex 2147483648",
         [](RunSnapshot &s) { s.evalIndex = std::int64_t{1} << 31; }},
        {"evalIndex -3", [](RunSnapshot &s) { s.evalIndex = -3; }},
    };
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(1);
    const TfimScenario scenario;
    for (const Row &row : rows) {
        SCOPED_TRACE(row.want);
        QismetVqeConfig cfg = scenario.config();
        cfg.checkpointDir = freshDir("bad_counters");
        cfg.resume = true;
        ASSERT_TRUE(runUntilCrash(scenario.runner, cfg,
                                  {kCrashIterationBoundary, 4}));
        {
            // Append the edited snapshot as the log's newest frame.
            CheckpointManager mgr(
                {cfg.checkpointDir, cfg.snapshotEveryIters, true},
                runConfigDigest(cfg,
                                scenario.app.ansatzCircuit.numParams()));
            const auto recovered = mgr.recover();
            ASSERT_TRUE(recovered.has_value());
            mgr.beginResumed(*recovered);
            RunSnapshot snap = recovered->snapshot;
            row.edit(snap);
            mgr.writeSnapshot(snap);
        }
        try {
            (void)scenario.runner.run(cfg);
            ADD_FAILURE() << "the snapshot's counters were resumed";
        }
        catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(row.want),
                      std::string::npos)
                << e.what();
        }
        fs::remove_all(cfg.checkpointDir);
    }
}

TEST(CrashResume, ResumeUnderDifferentConfigIsRejected)
{
    GlobalThreadsGuard threadsGuard;
    ParallelExecutor::setGlobalThreads(1);

    const H2Scenario scenario;
    QismetVqeConfig cfg = scenario.config();
    cfg.checkpointDir = freshDir("config_gate");
    cfg.resume = true;
    EXPECT_TRUE(runUntilCrash(scenario.runner, cfg,
                              {kCrashIterationBoundary, 4}));

    QismetVqeConfig other = cfg;
    other.seed = 12; // different trajectory: digest must not match
    EXPECT_THROW((void)scenario.runner.run(other), CheckpointError);
    fs::remove_all(cfg.checkpointDir);
}

} // namespace
} // namespace qismet
