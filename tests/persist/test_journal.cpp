/**
 * @file
 * Corruption-handling tests for the durability layer: the journal
 * scanner, the snapshot loader and CheckpointManager recovery must fail
 * closed on every malformed input — bit-flipped frames, truncated
 * tails, bad version headers, zero-length files — with a diagnostic,
 * never a crash and never a silent misparse.
 *
 * The fuzz cases are seeded and deterministic. Their invariant: a scan
 * of a tampered journal either throws JournalError, or returns frames
 * that are an exact prefix of the original frame sequence (torn-tail
 * recovery). Returning altered or reordered content is the one
 * forbidden outcome — a 64-bit FNV-1a collision is the only way past
 * it.
 */

#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"
#include "persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "fault/crash_point.hpp"

#include "common/scratch_dir.hpp"

namespace qismet {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // The pid suffix keeps the per-test ctest entry and the
        // whole-binary <label>.suite entry (which run the same test
        // concurrently under `ctest --preset all -j`) off each
        // other's directories.
        dir_ = test::scratchDirForCurrentTest("qismet_journal");
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

constexpr std::uint64_t kDigest = 0x1122334455667788ull;

JournalJobRecord sampleJob(std::uint64_t i)
{
    JournalJobRecord rec;
    rec.jobIndex = i;
    rec.evalIndex = static_cast<std::int64_t>(i / 2);
    rec.retryIndex = static_cast<std::int64_t>(i % 3);
    rec.transientIntensity = 0.25 * static_cast<double>(i);
    rec.eMeasured = -1.1 - static_cast<double>(i);
    rec.accepted = (i % 2) == 0;
    rec.status = static_cast<std::uint8_t>(i % 4);
    rec.carriedForward = (i % 5) == 0;
    rec.shotFraction = 1.0 - 0.01 * static_cast<double>(i);
    rec.transientEstimate = 0.5 / (1.0 + static_cast<double>(i));
    rec.hasReference = (i % 3) == 0;
    rec.eReference = -0.9 * static_cast<double>(i);
    rec.point = {0.1 * static_cast<double>(i), -2.0,
                 static_cast<double>(i)};
    return rec;
}

/** Write a small journal and return the original bytes. */
std::string writeSampleJournal(const std::string &path,
                               std::size_t jobs = 6)
{
    JournalWriter writer(path, kDigest, DurableFile::Mode::Truncate);
    for (std::size_t i = 0; i < jobs; ++i) {
        writer.appendJob(sampleJob(i));
        if (i % 2 == 1) {
            JournalIterationRecord it;
            it.iteration = i / 2;
            it.eReported = -1.5 - static_cast<double>(i);
            it.moveAccepted = i % 4 == 1;
            writer.appendIteration(it);
        }
    }
    return readFile(path);
}

// ---- round trip ----------------------------------------------------------

TEST_F(JournalTest, RoundTripsJobAndIterationFrames)
{
    const std::string p = path("journal.qjnl");
    writeSampleJournal(p);

    const JournalScanResult scan = scanJournal(p);
    EXPECT_EQ(scan.configDigest, kDigest);
    EXPECT_FALSE(scan.tornTail);
    ASSERT_EQ(scan.frames.size(), 9u); // 6 jobs + 3 iterations

    Decoder dec(scan.frames[0].payload);
    const JournalJobRecord job = JournalJobRecord::decode(dec);
    const JournalJobRecord want = sampleJob(0);
    EXPECT_EQ(job.jobIndex, want.jobIndex);
    EXPECT_EQ(job.evalIndex, want.evalIndex);
    EXPECT_EQ(job.status, want.status);
    EXPECT_EQ(job.point, want.point);
    EXPECT_DOUBLE_EQ(job.eMeasured, want.eMeasured);

    ASSERT_EQ(scan.frames[2].type, JournalFrameType::Iteration);
    Decoder itDec(scan.frames[2].payload);
    const JournalIterationRecord it =
        JournalIterationRecord::decode(itDec);
    EXPECT_EQ(it.iteration, 0u);
    EXPECT_TRUE(scan.cleanOffset == scan.frames.back().endOffset);
}

TEST_F(JournalTest, AppendModeResumesAtRecoveredOffset)
{
    const std::string p = path("journal.qjnl");
    writeSampleJournal(p, 4);
    const JournalScanResult before = scanJournal(p);

    // Resume after frame 2, dropping everything later, and append one
    // fresh frame.
    JournalWriter writer(p, kDigest, DurableFile::Mode::Append,
                         before.frames[1].endOffset, 2);
    EXPECT_EQ(writer.frames(), 2u);
    writer.appendJob(sampleJob(99));

    const JournalScanResult after = scanJournal(p);
    ASSERT_EQ(after.frames.size(), 3u);
    EXPECT_EQ(after.frames[0].payload, before.frames[0].payload);
    EXPECT_EQ(after.frames[1].payload, before.frames[1].payload);
    Decoder dec(after.frames[2].payload);
    EXPECT_EQ(JournalJobRecord::decode(dec).jobIndex, 99u);
}

// ---- structural corruption: fail closed ----------------------------------

TEST_F(JournalTest, ZeroLengthFileIsAnError)
{
    const std::string p = path("journal.qjnl");
    atomicWriteFile(p, "");
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

TEST_F(JournalTest, MissingFileIsAnError)
{
    EXPECT_THROW((void)scanJournal(path("absent.qjnl")), FileError);
}

TEST_F(JournalTest, ShortHeaderIsAnError)
{
    const std::string p = path("journal.qjnl");
    const std::string full = encodeJournalHeader(kDigest);
    for (std::size_t cut = 1; cut < full.size(); ++cut) {
        atomicWriteFile(p, std::string_view(full).substr(0, cut));
        EXPECT_THROW((void)scanJournal(p), JournalError) << "cut=" << cut;
    }
}

TEST_F(JournalTest, BadMagicIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    bytes[0] = 'X';
    atomicWriteFile(p, bytes);
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

TEST_F(JournalTest, UnsupportedVersionIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    bytes[4] = static_cast<char>(kJournalVersion + 1);
    // Recompute nothing: even with a valid checksum over the altered
    // header the version gate must reject first, so patch the stored
    // checksum to match the tampered prefix.
    const std::uint64_t sum =
        fnv1a64(std::string_view(bytes).substr(0, 16));
    for (std::size_t i = 0; i < 8; ++i)
        bytes[16 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    atomicWriteFile(p, bytes);
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

TEST_F(JournalTest, InvalidFrameTypeIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    bytes[kJournalHeaderSize] = '\x7e'; // neither Job nor Iteration
    atomicWriteFile(p, bytes);
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

TEST_F(JournalTest, ImplausibleFrameLengthIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    // Frame length field: 4 bytes starting after the type byte.
    for (std::size_t i = 1; i <= 4; ++i)
        bytes[kJournalHeaderSize + i] = '\xff';
    atomicWriteFile(p, bytes);
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

TEST_F(JournalTest, ChecksumBadFrameWithDataAfterIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    const JournalScanResult scan = scanJournal(p);
    // Flip a payload byte of the FIRST frame: valid frames follow, so
    // this cannot be a torn append and must be rejected outright.
    bytes[kJournalHeaderSize + 6] =
        static_cast<char>(bytes[kJournalHeaderSize + 6] ^ 0x01);
    atomicWriteFile(p, bytes);
    ASSERT_GT(scan.frames.size(), 1u);
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

// ---- torn tails: recover the durable prefix ------------------------------

TEST_F(JournalTest, EveryTruncationYieldsCleanPrefixOrHeaderError)
{
    const std::string p = path("journal.qjnl");
    const std::string bytes = writeSampleJournal(p, 4);
    const JournalScanResult original = scanJournal(p);

    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        atomicWriteFile(p, std::string_view(bytes).substr(0, cut));
        if (cut < kJournalHeaderSize) {
            EXPECT_THROW((void)scanJournal(p), JournalError)
                << "cut=" << cut;
            continue;
        }
        JournalScanResult scan;
        ASSERT_NO_THROW(scan = scanJournal(p)) << "cut=" << cut;
        // The recovered frames must be the exact durable prefix.
        std::size_t whole = 0;
        while (whole < original.frames.size() &&
               original.frames[whole].endOffset <= cut)
            ++whole;
        EXPECT_EQ(scan.frames.size(), whole) << "cut=" << cut;
        for (std::size_t i = 0; i < whole; ++i)
            EXPECT_EQ(scan.frames[i].payload,
                      original.frames[i].payload);
        const bool atBoundary =
            cut == kJournalHeaderSize ||
            (whole > 0 && original.frames[whole - 1].endOffset == cut);
        EXPECT_EQ(scan.tornTail, !atBoundary) << "cut=" << cut;
        if (scan.tornTail) {
            EXPECT_FALSE(scan.diagnostic.empty());
            EXPECT_GT(scan.droppedBytes, 0u);
        }
        EXPECT_EQ(scan.cleanOffset,
                  whole == 0 ? kJournalHeaderSize
                             : original.frames[whole - 1].endOffset);
    }
}

TEST_F(JournalTest, TornWriteCrashPointLeavesRecoverableJournal)
{
    const std::string p = path("journal.qjnl");
    bool crashed = false;
    try {
        JournalWriter writer(p, kDigest, DurableFile::Mode::Truncate);
        CrashPointGuard guard(kCrashJournalTornWrite, 3);
        for (std::uint64_t i = 0; i < 10; ++i)
            writer.appendJob(sampleJob(i));
    }
    catch (const SimulatedCrash &crash) {
        crashed = true;
        EXPECT_EQ(crash.point(), kCrashJournalTornWrite);
    }
    ASSERT_TRUE(crashed);

    const JournalScanResult scan = scanJournal(p);
    EXPECT_TRUE(scan.tornTail);
    EXPECT_FALSE(scan.diagnostic.empty());
    ASSERT_EQ(scan.frames.size(), 2u); // two durable, third torn mid-write
    for (std::size_t i = 0; i < scan.frames.size(); ++i) {
        Decoder dec(scan.frames[i].payload);
        EXPECT_EQ(JournalJobRecord::decode(dec).jobIndex, i);
    }
}

TEST_F(JournalTest, OversizedFrameIsRejectedBeforeAnyByte)
{
    // 140000 parameters encode to ~1.1 MB, past the reader's 1 MiB
    // frame cap: writing that frame would leave a journal that can
    // never be resumed, so the writer refuses it.
    const std::string p = path("journal.qjnl");
    JournalWriter writer(p, kDigest, DurableFile::Mode::Truncate);
    writer.appendJob(sampleJob(0));
    writer.appendJob(sampleJob(1));
    const std::uint64_t before = writer.offset();

    JournalJobRecord huge = sampleJob(2);
    huge.point.assign(140000, 0.5);
    try {
        writer.appendJob(huge);
        FAIL() << "oversized frame was accepted";
    }
    catch (const JournalError &e) {
        // The message names the cap.
        const std::string what = e.what();
        EXPECT_NE(what.find("1048576"), std::string::npos) << what;
    }
    EXPECT_EQ(writer.offset(), before);
    EXPECT_EQ(writer.frames(), 2u);
    EXPECT_EQ(fs::file_size(p), before);

    const JournalScanResult scan = scanJournal(p);
    EXPECT_FALSE(scan.tornTail);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.cleanOffset, before);
}

// ---- seeded fuzz ---------------------------------------------------------

TEST_F(JournalTest, BitFlipFuzzNeverMisparses)
{
    const std::string p = path("journal.qjnl");
    const std::string bytes = writeSampleJournal(p);
    const JournalScanResult original = scanJournal(p);

    Rng rng(20260807);
    for (int trial = 0; trial < 400; ++trial) {
        std::string mutated = bytes;
        const std::uint64_t flips = 1 + rng.uniformInt(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
            const std::uint64_t at = rng.uniformInt(mutated.size());
            mutated[at] = static_cast<char>(
                mutated[at] ^ (1u << rng.uniformInt(8)));
        }
        if (mutated == bytes)
            continue;
        atomicWriteFile(p, mutated);
        try {
            const JournalScanResult scan = scanJournal(p);
            // Accepted: then it must be a prefix of the true content.
            ASSERT_LE(scan.frames.size(), original.frames.size())
                << "trial " << trial;
            for (std::size_t i = 0; i < scan.frames.size(); ++i) {
                ASSERT_EQ(scan.frames[i].type, original.frames[i].type)
                    << "trial " << trial << " frame " << i;
                ASSERT_EQ(scan.frames[i].payload,
                          original.frames[i].payload)
                    << "trial " << trial << " frame " << i;
            }
            // Losing frames without noticing is forbidden: a shorter
            // parse must be flagged as torn.
            if (scan.frames.size() < original.frames.size()) {
                EXPECT_TRUE(scan.tornTail) << "trial " << trial;
            }
        }
        catch (const JournalError &) {
            // Fail closed: always acceptable.
        }
    }
}

TEST_F(JournalTest, TruncateAndFlipFuzzNeverMisparses)
{
    const std::string p = path("journal.qjnl");
    const std::string bytes = writeSampleJournal(p);
    const JournalScanResult original = scanJournal(p);

    Rng rng(777);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t cut =
            kJournalHeaderSize +
            rng.uniformInt(bytes.size() - kJournalHeaderSize);
        std::string mutated = bytes.substr(0, cut);
        if (!mutated.empty() && rng.bernoulli(0.5)) {
            const std::uint64_t at = rng.uniformInt(mutated.size());
            mutated[at] = static_cast<char>(
                mutated[at] ^ (1u << rng.uniformInt(8)));
        }
        atomicWriteFile(p, mutated);
        try {
            const JournalScanResult scan = scanJournal(p);
            ASSERT_LE(scan.frames.size(), original.frames.size());
            for (std::size_t i = 0; i < scan.frames.size(); ++i)
                ASSERT_EQ(scan.frames[i].payload,
                          original.frames[i].payload)
                    << "trial " << trial << " frame " << i;
        }
        catch (const JournalError &) {
        }
    }
}

// ---- snapshot files ------------------------------------------------------

RunSnapshot sampleSnapshot()
{
    RunSnapshot snap;
    snap.configDigest = kDigest;
    snap.journalFrames = 9;
    snap.journalOffset = 4321;
    snap.iteration = 17;
    snap.evalIndex = 35;
    snap.theta = {0.25, -1.5, 3.75};
    snap.prevPoint = {0.2, -1.4, 3.8};
    snap.havePrev = true;
    snap.ePrev = -1.0625;
    snap.haveIterPrev = true;
    snap.eIterPrev = -1.03125;
    snap.jobsUsed = 40;
    snap.retriesUsed = 5;
    snap.rejections = 2;
    snap.faultsSeen = 3;
    snap.faultRetries = 1;
    snap.evalsCarriedForward = 1;
    snap.simTimeSeconds = 41.5;
    snap.backoffSeconds = 1.5;
    Rng rng(5);
    (void)rng.normal(); // populate the spare-normal cache
    snap.optimizerRng = rng.saveState();
    snap.executorJobs = 40;
    snap.executorCircuits = 1234;
    snap.policyState = std::string("policy\x01\x02", 8);
    snap.optimizerState = std::string("optim\x00\x03", 7);
    return snap;
}

TEST_F(JournalTest, SnapshotRoundTripsBitExactly)
{
    const std::string p = path("snapshot.qsnp");
    const RunSnapshot snap = sampleSnapshot();
    saveSnapshotFile(p, snap);
    const RunSnapshot back = loadSnapshotFile(p);

    EXPECT_EQ(back.configDigest, snap.configDigest);
    EXPECT_EQ(back.journalFrames, snap.journalFrames);
    EXPECT_EQ(back.journalOffset, snap.journalOffset);
    EXPECT_EQ(back.iteration, snap.iteration);
    EXPECT_EQ(back.evalIndex, snap.evalIndex);
    EXPECT_EQ(back.theta, snap.theta);
    EXPECT_EQ(back.prevPoint, snap.prevPoint);
    EXPECT_EQ(back.havePrev, snap.havePrev);
    EXPECT_DOUBLE_EQ(back.ePrev, snap.ePrev);
    EXPECT_EQ(back.jobsUsed, snap.jobsUsed);
    EXPECT_EQ(back.evalsCarriedForward, snap.evalsCarriedForward);
    EXPECT_EQ(back.optimizerRng.engine, snap.optimizerRng.engine);
    EXPECT_EQ(back.optimizerRng.hasSpareNormal,
              snap.optimizerRng.hasSpareNormal);
    EXPECT_DOUBLE_EQ(back.optimizerRng.spareNormal,
                     snap.optimizerRng.spareNormal);
    EXPECT_EQ(back.executorJobs, snap.executorJobs);
    EXPECT_EQ(back.executorCircuits, snap.executorCircuits);
    EXPECT_EQ(back.policyState, snap.policyState);
    EXPECT_EQ(back.optimizerState, snap.optimizerState);

    // The restored RNG must continue the stream identically.
    Rng a(5);
    (void)a.normal();
    Rng b(1);
    b.restoreState(back.optimizerRng);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

TEST_F(JournalTest, SnapshotEveryBitFlipFailsClosed)
{
    const std::string p = path("snapshot.qsnp");
    saveSnapshotFile(p, sampleSnapshot());
    const std::string bytes = readFile(p);

    // Every byte of the file is covered by a structural check or the
    // payload checksum, so every single-bit flip must be rejected.
    for (std::size_t at = 0; at < bytes.size(); ++at) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
        atomicWriteFile(p, mutated);
        EXPECT_THROW((void)loadSnapshotFile(p), SnapshotError)
            << "byte " << at;
    }
}

TEST_F(JournalTest, SnapshotTruncationsFailClosed)
{
    const std::string p = path("snapshot.qsnp");
    saveSnapshotFile(p, sampleSnapshot());
    const std::string bytes = readFile(p);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        atomicWriteFile(p, std::string_view(bytes).substr(0, cut));
        EXPECT_THROW((void)loadSnapshotFile(p), SnapshotError)
            << "cut=" << cut;
    }
    EXPECT_THROW((void)loadSnapshotFile(path("absent.qsnp")),
                 SnapshotError);
}

// ---- CheckpointManager recovery ------------------------------------------

TEST_F(JournalTest, CheckpointRejectsEmptyDirectory)
{
    EXPECT_THROW(CheckpointManager({}, kDigest), CheckpointError);
}

TEST_F(JournalTest, CheckpointRejectsZeroSnapshotCadence)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.snapshotEveryIters = 0;
    try {
        CheckpointManager mgr(cfg, kDigest);
        FAIL() << "zero snapshot cadence was accepted";
    }
    catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("snapshotEveryIters"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(JournalTest, JournalIsSyncedOncePerSnapshot)
{
    // Group commit: frames are written without an fsync, and the
    // snapshot syncs the journal before it records the offset. A
    // process-death test cannot see a missing fsync, so this pins the
    // synced offset directly.
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    CheckpointManager mgr(cfg, kDigest);
    mgr.beginFresh();
    for (std::uint64_t i = 0; i < 3; ++i)
        mgr.appendJob(sampleJob(i));
    EXPECT_EQ(mgr.journal().syncedOffset(), kJournalHeaderSize);
    EXPECT_GT(mgr.journal().offset(), kJournalHeaderSize);

    mgr.writeSnapshot(RunSnapshot{});
    const RunSnapshot snap = loadSnapshotFile(mgr.snapshotPath());
    EXPECT_EQ(snap.journalOffset, mgr.journal().syncedOffset());
    EXPECT_EQ(snap.journalOffset, mgr.journal().offset());
    EXPECT_EQ(snap.journalFrames, 3u);

    mgr.appendJob(sampleJob(3));
    mgr.appendJob(sampleJob(4));
    EXPECT_EQ(mgr.journal().syncedOffset(), snap.journalOffset);
    EXPECT_GT(mgr.journal().offset(), snap.journalOffset);
}

TEST_F(JournalTest, FreshAndVirginDirectoriesRecoverToNothing)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = false;
    CheckpointManager fresh(cfg, kDigest);
    EXPECT_FALSE(fresh.recover().has_value());

    cfg.resume = true;
    CheckpointManager virgin(cfg, kDigest);
    EXPECT_FALSE(virgin.recover().has_value());
}

TEST_F(JournalTest, JournalWithoutSnapshotRestartsWithDiagnostic)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = true;
    CheckpointManager mgr(cfg, kDigest);
    writeSampleJournal(mgr.journalPath(), 2);
    EXPECT_FALSE(mgr.recover().has_value());
    EXPECT_NE(mgr.diagnostics().find("no snapshot"), std::string::npos);
}

TEST_F(JournalTest, SnapshotWithoutJournalRefusesToResume)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = true;
    CheckpointManager mgr(cfg, kDigest);
    saveSnapshotFile(mgr.snapshotPath(), sampleSnapshot());
    EXPECT_THROW((void)mgr.recover(), CheckpointError);
}

TEST_F(JournalTest, DigestMismatchRefusesToResume)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = false;
    {
        CheckpointManager writer(cfg, kDigest);
        writer.beginFresh();
        writer.appendJob(sampleJob(0));
        RunSnapshot snap = sampleSnapshot();
        writer.writeSnapshot(snap);
    }
    cfg.resume = true;
    CheckpointManager other(cfg, kDigest + 1);
    EXPECT_THROW((void)other.recover(), CheckpointError);
}

TEST_F(JournalTest, JournalShorterThanSnapshotClaimsIsAnError)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = true;
    CheckpointManager mgr(cfg, kDigest);
    writeSampleJournal(mgr.journalPath(), 1); // 1 frame on disk
    RunSnapshot snap = sampleSnapshot();      // claims 9 frames
    saveSnapshotFile(mgr.snapshotPath(), snap);
    EXPECT_THROW((void)mgr.recover(), CheckpointError);
}

TEST_F(JournalTest, RecoveryReplaysPrefixAndTruncatesTail)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = false;
    std::uint64_t snapFrames = 0;
    {
        CheckpointManager writer(cfg, kDigest);
        writer.beginFresh();
        for (std::uint64_t i = 0; i < 3; ++i)
            writer.appendJob(sampleJob(i));
        RunSnapshot snap;
        snap.iteration = 1;
        snap.theta = {1.0, 2.0};
        writer.writeSnapshot(snap);
        snapFrames = writer.journal().frames();
        // Two more frames past the snapshot: discarded on recovery.
        writer.appendJob(sampleJob(3));
        writer.appendJob(sampleJob(4));
    }

    cfg.resume = true;
    CheckpointManager resumer(cfg, kDigest);
    const auto recovered = resumer.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->snapshot.iteration, 1u);
    EXPECT_EQ(recovered->snapshot.theta,
              (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(recovered->snapshot.journalFrames, snapFrames);
    EXPECT_EQ(recovered->frames.size(), snapFrames);
    EXPECT_NE(resumer.diagnostics().find("discarding 2"),
              std::string::npos);

    resumer.beginResumed(*recovered);
    resumer.appendJob(sampleJob(77));

    // The truncated journal now holds exactly the snapshot prefix plus
    // the new frame.
    const JournalScanResult scan = scanJournal(resumer.journalPath());
    ASSERT_EQ(scan.frames.size(), snapFrames + 1);
    EXPECT_FALSE(scan.tornTail);
    Decoder dec(scan.frames.back().payload);
    EXPECT_EQ(JournalJobRecord::decode(dec).jobIndex, 77u);
}

TEST_F(JournalTest, RecoveryDropsTornTailPastSnapshot)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = false;
    {
        CheckpointManager writer(cfg, kDigest);
        writer.beginFresh();
        writer.appendJob(sampleJob(0));
        writer.writeSnapshot(RunSnapshot{});
        writer.appendJob(sampleJob(1));
    }
    // Tear the final frame by hand.
    const std::string jpath = path("ckpt") + "/journal.qjnl";
    const std::string bytes = readFile(jpath);
    atomicWriteFile(jpath,
                    std::string_view(bytes).substr(0, bytes.size() - 3));

    cfg.resume = true;
    CheckpointManager resumer(cfg, kDigest);
    const auto recovered = resumer.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->frames.size(), 1u);
    EXPECT_NE(resumer.diagnostics().find("torn tail"),
              std::string::npos);
}

} // namespace
} // namespace qismet
