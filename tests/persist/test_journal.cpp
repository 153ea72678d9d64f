/**
 * @file
 * Corruption-handling tests for the durability layer: the journal
 * scanner, the snapshot loader, the serve manifest scanner and
 * CheckpointManager recovery must fail closed on every malformed input
 * — bit-flipped frames, truncated tails, bad version headers,
 * zero-length files — with a diagnostic, never a crash and never a
 * silent misparse.
 *
 * All three files are framed logs (persist/framed_log.hpp), so the
 * fuzz, version-skew and known-answer batteries run over each of them.
 * The fuzz cases are seeded and deterministic. Their invariant: a read
 * of a tampered file either throws the format's own error, or accepts
 * an exact prefix of the original record sequence (torn-tail
 * recovery). Returning altered or reordered content is the one
 * forbidden outcome — a 64-bit FNV-1a collision is the only way past
 * it.
 */

#include "persist/checkpoint.hpp"
#include "persist/framed_log.hpp"
#include "persist/journal.hpp"
#include "persist/snapshot.hpp"
#include "serve/manifest.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "fault/crash_point.hpp"

#include "common/file_size_limit.hpp"
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

/** Three successive snapshots of one run, for a multi-frame log. */
std::vector<RunSnapshot> sampleSnapshots()
{
    std::vector<RunSnapshot> snaps(3, sampleSnapshot());
    for (std::size_t i = 1; i < snaps.size(); ++i) {
        snaps[i].iteration += i;
        snaps[i].journalFrames += 3 * i;
        snaps[i].journalOffset += 200 * i;
        snaps[i].theta[0] += 0.5 * static_cast<double>(i);
    }
    return snaps;
}

/** Write `snapshots` as a fresh snapshot log and return its bytes. */
std::string writeSnapshotLog(const std::string &path,
                             const std::vector<RunSnapshot> &snapshots)
{
    SnapshotWriter writer(path, kDigest, DurableFile::Mode::Truncate);
    for (const RunSnapshot &snapshot : snapshots)
        writer.append(snapshot);
    return readFile(path);
}

ServeJobSpec sampleSpec(std::uint64_t tenant)
{
    ServeJobSpec spec;
    spec.tenantId = tenant;
    spec.totalJobs = 8;
    spec.crashPlan = {3};
    return spec;
}

/** Write a manifest holding frames of every type; return its bytes. */
std::string writeSampleManifest(const std::string &path)
{
    ServeManifest manifest(path, kDigest, DurableFile::Mode::Truncate);
    manifest.appendSubmit(1, sampleSpec(0));
    manifest.appendSubmit(2, sampleSpec(1));
    manifest.appendSubmit(3, sampleSpec(2));
    manifest.appendSubmit(4, sampleSpec(0));
    manifest.appendCancel(2);
    ManifestCompletion done;
    done.trajectoryDigest = "0123456789abcdef";
    done.finalEstimate = -1.125;
    done.jobsUsed = 8;
    done.tick = 5;
    done.deadlineExpired = true;
    done.retriesUsed = 2;
    done.faultRetries = 1;
    done.backoffSeconds = 0.75;
    done.simTimeSeconds = 12.5;
    manifest.appendComplete(1, done);
    manifest.appendShed(3);
    manifest.appendFailed(4);
    HealthTransition health;
    health.backendId = 1;
    health.tick = 6;
    health.health = BackendHealth::Quarantined;
    health.breaker = BreakerState::Open;
    health.cooldownTicks = 4;
    health.breakerOpenedTick = 6;
    health.consecutiveFaults = 3;
    manifest.appendHealth(health);
    return readFile(path);
}

/** What a format's reader made of one file. */
struct ReadOutcome
{
    bool failedClosed = false; ///< threw the format's own error type
    std::string error;         ///< that error's message
    std::size_t records = 0;   ///< records decoded
    std::uint64_t cleanOffset = 0;
    bool tornTail = false;
};

/** Run `read`, catching only the format's own error type. */
template <typename Error, typename Read>
ReadOutcome readAs(const Read &read)
{
    try {
        return read();
    }
    catch (const Error &e) {
        return {true, e.what()};
    }
}

/** Load the snapshot at `path`, catching only SnapshotError. */
ReadOutcome readSnapshot(const std::string &path)
{
    return readAs<SnapshotError>([&path] {
        (void)loadSnapshotFile(path);
        return ReadOutcome{};
    });
}

/** One on-disk format, with a sample file written by its typed layer. */
struct Format
{
    std::string name;
    std::uint32_t version = 0;
    std::string path;
    std::string bytes; ///< the sample file as written
    std::function<ReadOutcome()> read;
};

/** The journal, the manifest and a three-frame snapshot log, each
 *  written to `dir`. */
std::vector<Format> sampleFormats(const fs::path &dir)
{
    const std::string journal = (dir / "journal.qjnl").string();
    const std::string manifest = (dir / "manifest.qsvm").string();
    const std::string snapshot = (dir / "snapshot.qsnp").string();
    return {
        {"journal", kJournalVersion, journal, writeSampleJournal(journal),
         [journal] {
             return readAs<JournalError>([&] {
                 const JournalScanResult s = scanJournal(journal);
                 return ReadOutcome{false, "", s.frames.size(),
                                    s.cleanOffset, s.tornTail};
             });
         }},
        {"manifest", kManifestVersion, manifest,
         writeSampleManifest(manifest),
         [manifest] {
             return readAs<ManifestError>([&] {
                 const ManifestScan s = scanManifest(manifest);
                 return ReadOutcome{
                     false, "",
                     s.submitted.size() + s.cancelled.size() +
                         s.completed.size() + s.shed.size() +
                         s.failed.size() + s.health.size(),
                     s.cleanOffset, s.tornTail};
             });
         }},
        {"snapshot", kSnapshotVersion, snapshot,
         writeSnapshotLog(snapshot, sampleSnapshots()),
         [snapshot] {
             return readAs<SnapshotError>([&] {
                 const SnapshotLogScan s = scanSnapshotLog(snapshot);
                 return ReadOutcome{false, "", s.frames, s.cleanOffset,
                                    s.tornTail};
             });
         }},
    };
}

/** End offsets of the header and then of each frame, walked by hand
 *  from the length fields. */
std::vector<std::uint64_t> frameEnds(const std::string &bytes)
{
    std::vector<std::uint64_t> ends{kFramedLogHeaderSize};
    while (ends.back() < bytes.size()) {
        Decoder len(std::string_view(bytes).substr(ends.back() + 1, 4));
        ends.push_back(ends.back() + 13 + len.readU32());
    }
    return ends;
}

/**
 * The exact-prefix half of the fuzz invariant, for a file the reader
 * accepted: it decoded k records, its clean offset is where the
 * sample's k-th frame ends, and every byte before that offset is the
 * sample's. The reader is deterministic, so equal bytes decode to
 * equal records.
 */
void expectExactPrefix(const Format &format, const std::string &mutated,
                       const ReadOutcome &got, int trial)
{
    const std::vector<std::uint64_t> ends = frameEnds(format.bytes);
    ASSERT_LT(got.records, ends.size())
        << format.name << " trial " << trial;
    EXPECT_EQ(got.cleanOffset, ends[got.records])
        << format.name << " trial " << trial;
    EXPECT_EQ(std::string_view(mutated).substr(0, got.cleanOffset),
              std::string_view(format.bytes).substr(0, got.cleanOffset))
        << format.name << " trial " << trial;
}

std::string u32le(std::uint32_t value)
{
    Encoder enc;
    enc.writeU32(value);
    return enc.take();
}

std::string u64le(std::uint64_t value)
{
    Encoder enc;
    enc.writeU64(value);
    return enc.take();
}

/** `bytes` with its header's version set to `version` and the header
 *  checksum patched to match. */
std::string withVersion(std::string bytes, std::uint32_t version)
{
    bytes.replace(4, 4, u32le(version));
    bytes.replace(16, 8,
                  u64le(fnv1a64(std::string_view(bytes).substr(0, 16))));
    return bytes;
}

/** A snapshot in the version-1 layout: "QSNP" | u32 1 | u64 payloadLen
 *  | payload | u64 fnv1a(payload). */
std::string version1Snapshot(const RunSnapshot &snapshot)
{
    const std::string payload = snapshot.encode();
    return "QSNP" + u32le(1) + u64le(payload.size()) + payload +
           u64le(fnv1a64(payload));
}

/** A snapshot in the version-2 layout: a framed log holding exactly one
 *  frame, which is the version-3 log's layout at version 2. */
std::string version2Snapshot(const RunSnapshot &snapshot)
{
    const FramedLogSpec v2{.noun = "snapshot",
                           .magic = "QSNP",
                           .version = 2,
                           .frameTypes = 1,
                           .error = &framedLogError<SnapshotError>};
    return encodeFramedLogHeader(v2, snapshot.configDigest) +
           encodeFrame(v2, "version-2 snapshot", 1, snapshot.encode());
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
    const std::string full =
        writeSampleJournal(p).substr(0, kFramedLogHeaderSize);
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
    // Table-driven over the three formats: each sample file with its
    // version bumped and its header checksum patched to match, so the
    // version gate is what must reject it, and the message must name
    // the version found and the one expected.
    struct Row
    {
        const Format *format;
        std::string bytes;
        std::uint32_t found;
    };
    const std::vector<Format> formats = sampleFormats(dir_);
    std::vector<Row> rows;
    for (const Format &format : formats)
        rows.push_back({&format, withVersion(format.bytes,
                                             format.version + 1),
                        format.version + 1});
    // A snapshot in the version-1 layout: the digest is what the
    // version-1 writer produced for sampleSnapshot().
    const std::string v1 = version1Snapshot(sampleSnapshot());
    EXPECT_EQ(fnv1a64(v1), 0xa2bbc18c05afe7e7ull);
    rows.push_back({&formats.back(), v1, 1});
    // And in the version-2 layout: size and digest are the version-2
    // writer's pinned answer for sampleSnapshot().
    const std::string v2 = version2Snapshot(sampleSnapshot());
    EXPECT_EQ(v2.size(), 311u);
    EXPECT_EQ(fnv1a64(v2), 0xce9bc1a5fb0f8471ull);
    rows.push_back({&formats.back(), v2, 2});

    for (const Row &row : rows) {
        atomicWriteFile(row.format->path, row.bytes);
        const ReadOutcome got = row.format->read();
        ASSERT_TRUE(got.failedClosed) << row.format->name;
        const std::string want =
            "unsupported version " + std::to_string(row.found) +
            " (expected " + std::to_string(row.format->version) + ")";
        EXPECT_NE(got.error.find(want), std::string::npos)
            << row.format->name << ": " << got.error;
    }
}

TEST_F(JournalTest, InvalidFrameTypeIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    bytes[kFramedLogHeaderSize] = '\x7e'; // neither Job nor Iteration
    atomicWriteFile(p, bytes);
    EXPECT_THROW((void)scanJournal(p), JournalError);
}

TEST_F(JournalTest, ImplausibleFrameLengthIsAnError)
{
    const std::string p = path("journal.qjnl");
    std::string bytes = writeSampleJournal(p);
    // Frame length field: 4 bytes starting after the type byte.
    for (std::size_t i = 1; i <= 4; ++i)
        bytes[kFramedLogHeaderSize + i] = '\xff';
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
    bytes[kFramedLogHeaderSize + 6] =
        static_cast<char>(bytes[kFramedLogHeaderSize + 6] ^ 0x01);
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
        if (cut < kFramedLogHeaderSize) {
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
            cut == kFramedLogHeaderSize ||
            (whole > 0 && original.frames[whole - 1].endOffset == cut);
        EXPECT_EQ(scan.tornTail, !atBoundary) << "cut=" << cut;
        if (scan.tornTail) {
            EXPECT_FALSE(scan.diagnostic.empty());
            EXPECT_GT(scan.droppedBytes, 0u);
        }
        EXPECT_EQ(scan.cleanOffset,
                  whole == 0 ? kFramedLogHeaderSize
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

TEST_F(JournalTest, ManifestAppendPastAFileSizeLimitLeavesNoTornFrame)
{
    // A submit fails part-way through its frame (a full disk; here a
    // file-size limit) and the scheduler carries on. The next submit
    // must land behind the last whole frame: behind the partial one,
    // the reader would refuse the log as corrupt (a cut in the payload)
    // or drop every later frame as a torn tail (a cut in the header).
    for (const std::uint64_t cut : {3u, 40u}) {
        SCOPED_TRACE("cut " + std::to_string(cut) + " bytes into the frame");
        const std::string p = path("manifest.qsvm");
        ServeManifest manifest(p, kDigest, DurableFile::Mode::Truncate);
        manifest.appendSubmit(1, sampleSpec(0));
        manifest.appendCancel(1);
        bool failed = false;
        {
            const test::FileSizeLimit limit(fs::file_size(p) + cut);
            try {
                manifest.appendSubmit(2, sampleSpec(1));
            }
            catch (const FileError &) {
                failed = true;
            }
        }
        EXPECT_TRUE(failed);
        manifest.appendSubmit(3, sampleSpec(2));

        const ManifestScan scan = scanManifest(p);
        EXPECT_FALSE(scan.tornTail) << scan.diagnostic;
        ASSERT_EQ(scan.submitted.size(), 2u);
        EXPECT_EQ(scan.submitted[0].first, 1u);
        EXPECT_EQ(scan.submitted[1].first, 3u);
        EXPECT_EQ(scan.cancelled, std::set<std::uint64_t>{1});
        EXPECT_EQ(scan.cleanOffset, fs::file_size(p));
    }
}

// ---- seeded fuzz, over all three formats ---------------------------------

TEST_F(JournalTest, BitFlipFuzzNeverMisparses)
{
    for (const Format &format : sampleFormats(dir_)) {
        const std::size_t frames = frameEnds(format.bytes).size() - 1;
        Rng rng(20260807);
        for (int trial = 0; trial < 400; ++trial) {
            std::string mutated = format.bytes;
            const std::uint64_t flips = 1 + rng.uniformInt(4);
            for (std::uint64_t f = 0; f < flips; ++f) {
                const std::uint64_t at = rng.uniformInt(mutated.size());
                mutated[at] = static_cast<char>(
                    mutated[at] ^ (1u << rng.uniformInt(8)));
            }
            if (mutated == format.bytes)
                continue;
            atomicWriteFile(format.path, mutated);
            const ReadOutcome got = format.read();
            if (got.failedClosed)
                continue; // always acceptable
            expectExactPrefix(format, mutated, got, trial);
            // Losing frames without noticing is forbidden: a shorter
            // parse must be flagged as torn.
            if (got.records < frames) {
                EXPECT_TRUE(got.tornTail)
                    << format.name << " trial " << trial;
            }
        }
    }
}

TEST_F(JournalTest, TruncateAndFlipFuzzNeverMisparses)
{
    for (const Format &format : sampleFormats(dir_)) {
        Rng rng(777);
        for (int trial = 0; trial < 200; ++trial) {
            const std::uint64_t cut =
                kFramedLogHeaderSize +
                rng.uniformInt(format.bytes.size() - kFramedLogHeaderSize);
            std::string mutated = format.bytes.substr(0, cut);
            if (!mutated.empty() && rng.bernoulli(0.5)) {
                const std::uint64_t at = rng.uniformInt(mutated.size());
                mutated[at] = static_cast<char>(
                    mutated[at] ^ (1u << rng.uniformInt(8)));
            }
            atomicWriteFile(format.path, mutated);
            const ReadOutcome got = format.read();
            if (!got.failedClosed)
                expectExactPrefix(format, mutated, got, trial);
        }
    }
}

// ---- pinned bytes, over all three formats --------------------------------

TEST_F(JournalTest, OnDiskBytesMatchKnownAnswers)
{
    // Size and FNV-1a of each sample file: a layout change fails here
    // until it bumps its format's version and re-pins the constant. The
    // journal and manifest constants were captured before the three
    // formats shared one codec, which writes them byte for byte as
    // before; the snapshot's is its version-3 layout, a three-frame log
    // (the version-2 answer is pinned in UnsupportedVersionIsAnError).
    const std::map<std::string, std::pair<std::size_t, std::uint64_t>>
        pinned = {
            {"journal", {792, 0xf6adcd0928e0100dull}},
            {"manifest", {672, 0x747734119288224aull}},
            {"snapshot", {885, 0x62374873d24bd68bull}},
        };
    for (const Format &format : sampleFormats(dir_)) {
        EXPECT_EQ(format.bytes.size(), pinned.at(format.name).first)
            << format.name;
        EXPECT_EQ(fnv1a64(format.bytes), pinned.at(format.name).second)
            << format.name;
    }
}

// ---- snapshot files ------------------------------------------------------

TEST_F(JournalTest, SnapshotRoundTripsBitExactly)
{
    const std::string p = path("snapshot.qsnp");
    const RunSnapshot snap = sampleSnapshot();
    writeSnapshotLog(p, {snap});
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
    const std::string bytes = writeSnapshotLog(p, {sampleSnapshot()});

    // Every byte of the file is covered by a structural check or the
    // payload checksum, and a one-frame log has no earlier snapshot to
    // fall back to, so every single-bit flip must be rejected. The
    // error names the file and, past the header, the frame's offset.
    const std::string frameAt =
        "at offset " + std::to_string(kFramedLogHeaderSize);
    for (std::size_t at = 0; at < bytes.size(); ++at) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
        atomicWriteFile(p, mutated);
        const ReadOutcome got = readSnapshot(p);
        ASSERT_TRUE(got.failedClosed) << "byte " << at;
        EXPECT_NE(got.error.find("'" + p + "'"), std::string::npos)
            << got.error;
        if (at >= kFramedLogHeaderSize) {
            EXPECT_NE(got.error.find(frameAt), std::string::npos)
                << "byte " << at << ": " << got.error;
        }
    }
}

TEST_F(JournalTest, SnapshotTruncationsFailClosed)
{
    // A one-frame log cut anywhere short of its end holds no complete
    // snapshot (a header alone means none was ever written).
    const std::string p = path("snapshot.qsnp");
    const std::string bytes = writeSnapshotLog(p, {sampleSnapshot()});
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        atomicWriteFile(p, std::string_view(bytes).substr(0, cut));
        EXPECT_THROW((void)loadSnapshotFile(p), SnapshotError)
            << "cut=" << cut;
    }
    EXPECT_THROW((void)loadSnapshotFile(path("absent.qsnp")),
                 SnapshotError);
}

TEST_F(JournalTest, SnapshotLogReadsItsLastValidFrame)
{
    // The log is appended to, so a later frame is a newer snapshot, and
    // a torn final frame (a crash mid-append) falls back to the one
    // before it, reported as torn. A damaged frame with a valid one
    // after it cannot come from a crash and is corruption.
    const std::string p = path("snapshot.qsnp");
    const std::vector<RunSnapshot> snaps = sampleSnapshots();
    const std::string bytes = writeSnapshotLog(p, snaps);
    EXPECT_EQ(loadSnapshotFile(p).iteration, snaps[2].iteration);

    const std::vector<std::uint64_t> ends = frameEnds(bytes);
    ASSERT_EQ(ends.size(), 4u);
    atomicWriteFile(p, std::string_view(bytes).substr(
                           0, (ends[2] + ends[3]) / 2));
    const SnapshotLogScan scan = scanSnapshotLog(p);
    ASSERT_TRUE(scan.latest.has_value());
    EXPECT_EQ(scan.latest->iteration, snaps[1].iteration);
    EXPECT_EQ(scan.latest->theta, snaps[1].theta);
    EXPECT_EQ(scan.frames, 2u);
    EXPECT_EQ(scan.cleanOffset, ends[2]);
    EXPECT_TRUE(scan.tornTail);
    EXPECT_NE(scan.diagnostic.find("at offset " + std::to_string(ends[2])),
              std::string::npos)
        << scan.diagnostic;
    EXPECT_EQ(loadSnapshotFile(p).iteration, snaps[1].iteration);

    std::string damaged = bytes;
    damaged[ends[1] - 1] = static_cast<char>(damaged[ends[1] - 1] ^ 0x01);
    atomicWriteFile(p, damaged);
    const ReadOutcome got = readSnapshot(p);
    ASSERT_TRUE(got.failedClosed);
    EXPECT_NE(got.error.find("at offset " +
                             std::to_string(kFramedLogHeaderSize)),
              std::string::npos)
        << got.error;
}

TEST_F(JournalTest, SnapshotHeaderDigestMustMatchItsPayload)
{
    // The config digest is written twice, in the header and in the
    // payload; a checksum-valid header naming another run is refused.
    const std::string p = path("snapshot.qsnp");
    std::string bytes = writeSnapshotLog(p, {sampleSnapshot()});
    bytes.replace(8, 8, u64le(kDigest + 1));
    bytes.replace(16, 8,
                  u64le(fnv1a64(std::string_view(bytes).substr(0, 16))));
    atomicWriteFile(p, bytes);
    const ReadOutcome got = readSnapshot(p);
    ASSERT_TRUE(got.failedClosed);
    EXPECT_NE(got.error.find("header digest"), std::string::npos)
        << got.error;
}

TEST_F(JournalTest, SnapshotOverTheFrameCapIsRefusedBeforeAnyByte)
{
    // A snapshot does not grow with the run, so the log keeps the
    // default 1 MiB frame cap. A larger snapshot is refused before a
    // byte of it is written, and recovery still finds the last one.
    RunSnapshot big = sampleSnapshot();
    big.policyState.assign(kMaxFramePayload, 'x');
    ASSERT_GT(big.encode().size(), kMaxFramePayload);

    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = false;
    {
        CheckpointManager writer(cfg, kDigest);
        writer.beginFresh();
        writer.appendJob(sampleJob(0));
        writer.writeSnapshot(sampleSnapshot());
        const std::string before = readFile(writer.snapshotPath());
        writer.appendJob(sampleJob(1));
        try {
            writer.writeSnapshot(big);
            FAIL() << "a snapshot over the frame cap was written";
        }
        catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("1048576"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(readFile(writer.snapshotPath()), before);
    }
    cfg.resume = true;
    CheckpointManager resumer(cfg, kDigest);
    const auto recovered = resumer.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->snapshot.policyState,
              sampleSnapshot().policyState);
    EXPECT_EQ(recovered->frames.size(), 1u);
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
    EXPECT_EQ(mgr.journal().syncedOffset(), kFramedLogHeaderSize);
    EXPECT_GT(mgr.journal().offset(), kFramedLogHeaderSize);

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

/** Run the same appends and three snapshots through a fresh manager in
 *  `dir`, the second and third committed by its committer thread. */
void writeThreeSnapshots(const std::string &dir, bool flush)
{
    CheckpointConfig cfg;
    cfg.dir = dir;
    CheckpointManager mgr(cfg, kDigest);
    mgr.beginFresh();
    for (std::uint64_t s = 0; s < 3; ++s) {
        for (std::uint64_t i = 0; i < 4; ++i)
            mgr.appendJob(sampleJob(4 * s + i));
        JournalIterationRecord it;
        it.iteration = s;
        mgr.appendIteration(it);
        RunSnapshot snap;
        snap.iteration = s + 1;
        mgr.writeSnapshot(snap);
    }
    if (flush)
        mgr.flush();
}

TEST_F(JournalTest, ManagerDestroyedMidCommitLeavesWhatFlushLeaves)
{
    // The destructor waits for the commit in flight, so a manager
    // dropped right after writeSnapshot leaves the same files as one
    // that flushed first, and the snapshot is the one recovery finds.
    writeThreeSnapshots(path("flushed"), true);
    writeThreeSnapshots(path("dropped"), false);
    for (const char *file : {"/journal.qjnl", "/snapshot.qsnp"})
        EXPECT_EQ(readFile(path("dropped") + file),
                  readFile(path("flushed") + file))
            << file;

    CheckpointConfig cfg;
    cfg.dir = path("dropped");
    cfg.resume = true;
    CheckpointManager resumer(cfg, kDigest);
    const auto recovered = resumer.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->snapshot.iteration, 3u);
    EXPECT_EQ(recovered->frames.size(), 15u);
    EXPECT_EQ(recovered->snapshot.journalOffset,
              fs::file_size(cfg.dir + "/journal.qjnl"));
    EXPECT_TRUE(resumer.diagnostics().empty()) << resumer.diagnostics();
}

TEST_F(JournalTest, BufferedFramesAreWrittenBehindTheLastCommit)
{
    // Frames past the last snapshot wait in memory: the journal's
    // progress counts them, its synced offset does not move, and the
    // destructor writes them (without an fsync) behind the last commit.
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    std::uint64_t committed = 0;
    {
        CheckpointManager mgr(cfg, kDigest);
        mgr.beginFresh();
        mgr.appendJob(sampleJob(0));
        mgr.writeSnapshot(RunSnapshot{});
        mgr.appendJob(sampleJob(1));
        mgr.writeSnapshot(RunSnapshot{});
        mgr.flush();
        committed = mgr.journal().offset();
        EXPECT_EQ(mgr.journal().syncedOffset(), committed);
        mgr.appendJob(sampleJob(2));
        mgr.appendJob(sampleJob(3));
        EXPECT_EQ(mgr.journal().frames(), 4u);
        EXPECT_GT(mgr.journal().offset(), committed);
        EXPECT_EQ(mgr.journal().syncedOffset(), committed);
        EXPECT_EQ(fs::file_size(mgr.journalPath()), committed);
    }
    const JournalScanResult scan = scanJournal(cfg.dir + "/journal.qjnl");
    EXPECT_FALSE(scan.tornTail);
    ASSERT_EQ(scan.frames.size(), 4u);
    EXPECT_EQ(scan.frames[1].endOffset, committed);
    for (std::size_t i = 0; i < scan.frames.size(); ++i) {
        Decoder dec(scan.frames[i].payload);
        EXPECT_EQ(JournalJobRecord::decode(dec).jobIndex, i);
    }
}

TEST_F(JournalTest, TornWriteBehindBufferedFramesWritesThemFirst)
{
    // The torn-write crash point fires on a buffered frame: every frame
    // before it is written, then half of it, as when each frame was
    // written at once, and no byte follows.
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    {
        CheckpointManager mgr(cfg, kDigest);
        mgr.beginFresh();
        mgr.appendJob(sampleJob(0));
        mgr.writeSnapshot(RunSnapshot{});
        mgr.appendJob(sampleJob(1));
        mgr.writeSnapshot(RunSnapshot{});
        CrashPointGuard guard(kCrashJournalTornWrite, 3);
        try {
            for (std::uint64_t i = 2; i < 8; ++i)
                mgr.appendJob(sampleJob(i));
            FAIL() << "the torn journal write never fired";
        }
        catch (const SimulatedCrash &crash) {
            EXPECT_EQ(crash.point(), kCrashJournalTornWrite);
        }
    }
    const JournalScanResult scan = scanJournal(cfg.dir + "/journal.qjnl");
    EXPECT_TRUE(scan.tornTail);
    ASSERT_EQ(scan.frames.size(), 4u); // two committed, two buffered
    for (std::size_t i = 0; i < scan.frames.size(); ++i) {
        Decoder dec(scan.frames[i].payload);
        EXPECT_EQ(JournalJobRecord::decode(dec).jobIndex, i);
    }
    std::string frame;
    JournalWriter(path("one.qjnl"), kDigest, DurableFile::Mode::Truncate)
        .encodeJob(sampleJob(4), frame);
    EXPECT_EQ(scan.droppedBytes, frame.size() / 2);

    cfg.resume = true;
    CheckpointManager resumer(cfg, kDigest);
    const auto recovered = resumer.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->frames.size(), 2u);
}

TEST_F(JournalTest, FailedCommitThrowsFromFlushNamingTheJournal)
{
    // The committer's journal write hits a file-size limit: the journal
    // is cut back to the last commit, flush() throws the FileError,
    // which names the journal, and so does every later snapshot.
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    const std::string journal = cfg.dir + "/journal.qjnl";
    CheckpointManager mgr(cfg, kDigest);
    mgr.beginFresh();
    mgr.appendJob(sampleJob(0));
    mgr.writeSnapshot(RunSnapshot{});
    const std::string committed = readFile(journal);
    const std::string snapshots = readFile(mgr.snapshotPath());
    for (std::uint64_t i = 1; i < 6; ++i)
        mgr.appendJob(sampleJob(i));
    std::string error;
    {
        const test::FileSizeLimit limit(committed.size() + 100);
        mgr.writeSnapshot(RunSnapshot{});
        try {
            mgr.flush();
        }
        catch (const FileError &e) {
            error = e.what();
        }
    }
    EXPECT_NE(error.find("write '" + journal + "'"), std::string::npos)
        << error;
    EXPECT_EQ(readFile(journal), committed);
    EXPECT_EQ(readFile(mgr.snapshotPath()), snapshots);
    EXPECT_THROW(mgr.flush(), FileError);
    mgr.appendJob(sampleJob(6));
    EXPECT_THROW(mgr.writeSnapshot(RunSnapshot{}), FileError);
    EXPECT_EQ(readFile(mgr.snapshotPath()), snapshots);
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

    // A snapshot log holding only its header: the run died before its
    // first snapshot landed, which is a restart too.
    writeSnapshotLog(mgr.snapshotPath(), {});
    CheckpointManager headerOnly(cfg, kDigest);
    EXPECT_FALSE(headerOnly.recover().has_value());
    EXPECT_NE(headerOnly.diagnostics().find("no snapshot"),
              std::string::npos);
}

TEST_F(JournalTest, SnapshotWithoutJournalRefusesToResume)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = true;
    CheckpointManager mgr(cfg, kDigest);
    writeSnapshotLog(mgr.snapshotPath(), {sampleSnapshot()});
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

/**
 * Resume a checkpoint whose snapshot file has been replaced by `old`, a
 * snapshot of version `found`: it must be refused with an error naming
 * both versions, before anything is replayed or truncated.
 */
void expectResumeRefusesUnread(const std::string &dir,
                               const std::string &old, std::uint32_t found)
{
    CheckpointConfig cfg;
    cfg.dir = dir;
    cfg.resume = false;
    {
        CheckpointManager writer(cfg, kDigest);
        writer.beginFresh();
        writer.appendJob(sampleJob(0));
        writer.writeSnapshot(sampleSnapshot());
        writer.appendJob(sampleJob(1));
    }
    CheckpointManager resumer({cfg.dir, 1, true}, kDigest);
    atomicWriteFile(resumer.snapshotPath(), old);
    const std::string journal = readFile(resumer.journalPath());
    try {
        (void)resumer.recover();
        FAIL() << "a version-" << found << " snapshot was resumed";
    }
    catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported version " + std::to_string(found) +
                      " (expected " + std::to_string(kSnapshotVersion) +
                      ")"),
                  std::string::npos)
            << e.what();
    }
    // Refused before anything was replayed or truncated.
    EXPECT_TRUE(resumer.diagnostics().empty());
    EXPECT_EQ(readFile(resumer.journalPath()), journal);
    EXPECT_EQ(readFile(resumer.snapshotPath()), old);
}

TEST_F(JournalTest, ResumeRefusesAVersion1SnapshotUnread)
{
    expectResumeRefusesUnread(path("ckpt"),
                              version1Snapshot(sampleSnapshot()), 1);
}

TEST_F(JournalTest, ResumeRefusesAVersion2SnapshotUnread)
{
    expectResumeRefusesUnread(path("ckpt"),
                              version2Snapshot(sampleSnapshot()), 2);
}

TEST_F(JournalTest, JournalShorterThanSnapshotClaimsIsAnError)
{
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = true;
    CheckpointManager mgr(cfg, kDigest);
    writeSampleJournal(mgr.journalPath(), 1); // 1 frame on disk
    RunSnapshot snap = sampleSnapshot();      // claims 9 frames
    writeSnapshotLog(mgr.snapshotPath(), {snap});
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

TEST_F(JournalTest, RecoveryFallsBackPastATornSnapshotFrame)
{
    // Die halfway through appending the third snapshot: recovery drops
    // the torn frame, resumes from the second snapshot and says so,
    // and beginResumed cuts the log back to that snapshot's frame.
    CheckpointConfig cfg;
    cfg.dir = path("ckpt");
    cfg.resume = false;
    {
        CheckpointManager writer(cfg, kDigest);
        writer.beginFresh();
        CrashPointGuard guard(kCrashSnapshotTornWrite, 3);
        try {
            for (std::uint64_t i = 0; i < 4; ++i) {
                writer.appendJob(sampleJob(i));
                RunSnapshot snap;
                snap.iteration = i;
                writer.writeSnapshot(snap);
            }
            FAIL() << "the torn snapshot write never fired";
        }
        catch (const SimulatedCrash &crash) {
            EXPECT_EQ(crash.point(), kCrashSnapshotTornWrite);
        }
    }
    const std::string torn =
        readFile(cfg.dir + "/snapshot.qsnp");

    cfg.resume = true;
    CheckpointManager resumer(cfg, kDigest);
    const auto recovered = resumer.recover();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->snapshot.iteration, 1u);
    EXPECT_EQ(recovered->frames.size(), 2u);
    EXPECT_NE(resumer.diagnostics().find("snapshot log torn tail"),
              std::string::npos)
        << resumer.diagnostics();
    EXPECT_NE(resumer.diagnostics().find("before the torn one "
                                         "(iteration 1)"),
              std::string::npos)
        << resumer.diagnostics();
    EXPECT_NE(resumer.diagnostics().find("discarding 1 journal frame"),
              std::string::npos)
        << resumer.diagnostics();
    EXPECT_EQ(readFile(resumer.snapshotPath()), torn); // recover() reads

    resumer.beginResumed(*recovered);
    EXPECT_EQ(fs::file_size(resumer.snapshotPath()),
              recovered->snapshotLogOffset);
    RunSnapshot next;
    next.iteration = 2;
    resumer.writeSnapshot(next);
    const SnapshotLogScan scan = scanSnapshotLog(resumer.snapshotPath());
    EXPECT_FALSE(scan.tornTail);
    EXPECT_EQ(scan.frames, 3u);
    ASSERT_TRUE(scan.latest.has_value());
    EXPECT_EQ(scan.latest->iteration, 2u);
    EXPECT_EQ(scan.latest->journalFrames, 2u);
}

} // namespace
} // namespace qismet
