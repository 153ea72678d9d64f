#include "serve/manifest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/scratch_dir.hpp"
#include "common/serial.hpp"

namespace qismet {
namespace {

namespace fs = std::filesystem;

class ServeManifestTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test::scratchDirForCurrentTest("qismet_manifest");
        path_ = (dir_ / "manifest.qsvm").string();
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string readAll() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    void writeAll(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    ServeJobSpec spec(std::uint64_t tenant) const
    {
        ServeJobSpec s;
        s.tenantId = tenant;
        s.kind = WorkloadKind::TfimApp;
        s.totalJobs = 8;
        s.crashPlan = {3};
        return s;
    }

    fs::path dir_;
    std::string path_;
};

TEST_F(ServeManifestTest, RoundTripsSubmitsCancelsAndCompletions)
{
    {
        ServeManifest manifest(path_, 0xF1EE7, DurableFile::Mode::Truncate);
        manifest.appendSubmit(1, spec(0));
        manifest.appendSubmit(2, spec(1));
        manifest.appendSubmit(3, spec(2));
        manifest.appendCancel(2);
        ManifestCompletion done;
        done.trajectoryDigest = "abcdef0123456789";
        done.finalEstimate = -2.25;
        done.jobsUsed = 8;
        manifest.appendComplete(1, done);
    }
    const ManifestScan scan = scanManifest(path_);
    EXPECT_EQ(scan.fleetDigest, 0xF1EE7u);
    EXPECT_FALSE(scan.tornTail);
    ASSERT_EQ(scan.submitted.size(), 3u);
    EXPECT_EQ(scan.submitted[0].first, 1u);
    EXPECT_EQ(scan.submitted[1].first, 2u);
    EXPECT_EQ(scan.submitted[2].first, 3u);
    EXPECT_EQ(scan.submitted[1].second.tenantId, 1u);
    EXPECT_EQ(scan.submitted[0].second.crashPlan,
              (std::vector<std::uint64_t>{3}));
    EXPECT_EQ(scan.cancelled.count(2), 1u);
    ASSERT_EQ(scan.completed.count(1), 1u);
    const ManifestCompletion &done = scan.completed.at(1);
    EXPECT_EQ(done.trajectoryDigest, "abcdef0123456789");
    EXPECT_EQ(done.finalEstimate, -2.25);
    EXPECT_EQ(done.jobsUsed, 8u);
    EXPECT_EQ(scan.cleanOffset, fs::file_size(path_));
}

TEST_F(ServeManifestTest, EmptyManifestScansClean)
{
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
    }
    const ManifestScan scan = scanManifest(path_);
    EXPECT_TRUE(scan.submitted.empty());
    EXPECT_FALSE(scan.tornTail);
    EXPECT_EQ(scan.fleetDigest, 5u);
}

TEST_F(ServeManifestTest, TornTailIsDroppedNotFatal)
{
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
        manifest.appendSubmit(1, spec(0));
        manifest.appendSubmit(2, spec(1));
    }
    const std::string full = readAll();
    const ManifestScan clean = scanManifest(path_);
    // Chop the last frame mid-payload: a crash artifact, not
    // corruption — the scan keeps everything before it.
    writeAll(full.substr(0, full.size() - 7));
    const ManifestScan scan = scanManifest(path_);
    EXPECT_TRUE(scan.tornTail);
    ASSERT_EQ(scan.submitted.size(), 1u);
    EXPECT_EQ(scan.submitted[0].first, 1u);
    EXPECT_LT(scan.cleanOffset, clean.cleanOffset);
}

TEST_F(ServeManifestTest, AppendModeResumesAfterTornTail)
{
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
        manifest.appendSubmit(1, spec(0));
        manifest.appendSubmit(2, spec(1));
    }
    writeAll(readAll().substr(0, readAll().size() - 3));
    const ManifestScan scan = scanManifest(path_);
    ASSERT_TRUE(scan.tornTail);
    {
        // Recovery: continue from the clean offset (drops the tail)…
        ServeManifest manifest(path_, 5, DurableFile::Mode::Append,
                               scan.cleanOffset);
        manifest.appendSubmit(2, spec(1));
        manifest.appendCancel(1);
    }
    // …and the result scans clean with the re-appended record intact.
    const ManifestScan after = scanManifest(path_);
    EXPECT_FALSE(after.tornTail);
    ASSERT_EQ(after.submitted.size(), 2u);
    EXPECT_EQ(after.submitted[1].first, 2u);
    EXPECT_EQ(after.cancelled.count(1), 1u);
}

TEST_F(ServeManifestTest, MidFileCorruptionThrows)
{
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
        manifest.appendSubmit(1, spec(0));
        manifest.appendSubmit(2, spec(1));
    }
    std::string bytes = readAll();
    // Flip one byte in the *first* frame's payload: checksum mismatch
    // that is provably not a torn tail (a valid frame follows).
    bytes[30] = static_cast<char>(bytes[30] ^ 0x40);
    writeAll(bytes);
    EXPECT_THROW(scanManifest(path_), ManifestError);
}

TEST_F(ServeManifestTest, OversizedRecordIsRejectedBeforeAnyByte)
{
    // A completion whose digest string pushes the frame past the
    // reader's 1 MiB cap: writing it would leave an unrecoverable
    // manifest, so the writer refuses it and the file stays scannable.
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
        manifest.appendSubmit(1, spec(0));
        manifest.appendSubmit(2, spec(1));
        const auto before = fs::file_size(path_);
        ManifestCompletion huge;
        huge.trajectoryDigest.assign(std::size_t{1} << 20, 'x');
        try {
            manifest.appendComplete(1, huge);
            FAIL() << "oversized record was accepted";
        }
        catch (const ManifestError &e) {
            // The message names the cap.
            const std::string what = e.what();
            EXPECT_NE(what.find("1048576"), std::string::npos) << what;
        }
        EXPECT_EQ(fs::file_size(path_), before);
    }
    const ManifestScan scan = scanManifest(path_);
    EXPECT_FALSE(scan.tornTail);
    ASSERT_EQ(scan.submitted.size(), 2u);
    EXPECT_EQ(scan.submitted[1].first, 2u);
    EXPECT_TRUE(scan.completed.empty());
    EXPECT_EQ(scan.cleanOffset, fs::file_size(path_));
}

/** A checksum-valid health frame, hand-encoded: u8 type 6 | u32 len |
 *  payload | u64 fnv1a(type byte + payload). */
std::string healthFrame(std::uint8_t health, std::uint8_t breaker)
{
    Encoder payload;
    payload.writeU64(0); // backendId
    payload.writeU64(7); // tick
    payload.writeU8(health);
    payload.writeU8(breaker);
    payload.writeU64(3); // cooldownTicks
    payload.writeU64(7); // breakerOpenedTick
    payload.writeU32(2); // consecutiveFaults
    payload.writeU32(0); // consecutiveSuccesses
    const std::uint8_t type = 6;
    Encoder frame;
    frame.writeU8(type);
    frame.writeU32(static_cast<std::uint32_t>(payload.bytes().size()));
    Encoder sum;
    sum.writeU64(fnv1a64(payload.bytes(), fnv1a64(&type, 1)));
    return frame.take() + payload.bytes() + sum.bytes();
}

TEST_F(ServeManifestTest, OutOfRangeHealthByteThrowsNamingIt)
{
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
    }
    const std::string header = readAll();
    // In range, the hand-encoded frame scans clean...
    writeAll(header + healthFrame(2, 2));
    ASSERT_EQ(scanManifest(path_).health.size(), 1u);
    // ...one past the last BackendHealth fails closed.
    writeAll(header + healthFrame(3, 0));
    try {
        (void)scanManifest(path_);
        FAIL() << "health byte 3 was accepted";
    }
    catch (const ManifestError &e) {
        EXPECT_NE(std::string(e.what()).find("health 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(ServeManifestTest, OutOfRangeBreakerByteThrowsNamingIt)
{
    {
        ServeManifest manifest(path_, 5, DurableFile::Mode::Truncate);
    }
    const std::string header = readAll();
    writeAll(header + healthFrame(0, 200));
    try {
        (void)scanManifest(path_);
        FAIL() << "breaker byte 200 was accepted";
    }
    catch (const ManifestError &e) {
        EXPECT_NE(std::string(e.what()).find("breaker 200"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(ServeManifestTest, DecodeRejectsHostileSpecBytesNamingThem)
{
    // A checksum-valid submit frame can still carry bytes no encoder
    // writes. Each must fail as a decode error (scanManifest turns it
    // into a ManifestError), never be cast or allocated for.
    auto decodeError = [](const std::string &bytes) {
        Decoder dec(bytes);
        try {
            (void)ServeJobSpec::decode(dec);
        }
        catch (const SerialError &err) {
            return std::string(err.what());
        }
        return std::string("decoded");
    };
    auto encoded = [](const ServeJobSpec &s) {
        Encoder enc;
        s.encode(enc);
        return enc.take();
    };
    ServeJobSpec s = spec(1);
    s.kind = static_cast<WorkloadKind>(3);
    EXPECT_NE(decodeError(encoded(s)).find("kind 3"), std::string::npos);
    s = spec(1);
    s.scheme = static_cast<Scheme>(11);
    EXPECT_NE(decodeError(encoded(s)).find("scheme 11"),
              std::string::npos);
    // The crash-plan count sits before its one entry, the deadline and
    // the migration budget (8 bytes each): claim 2^62 entries.
    std::string bytes = encoded(spec(1));
    Encoder count;
    count.writeU64(std::uint64_t{1} << 62);
    bytes.replace(bytes.size() - 32, 8, count.bytes());
    EXPECT_NE(decodeError(bytes), "decoded");
    // priority (bytes 8..16) and appIndex (bytes 17..25) are int fields
    // written as i64. 2^32 + 1 and 2^32 + 3 would narrow to priority 1
    // and App 3, pass validate() and re-encode to a different digest.
    const auto withI64 = [&](std::size_t offset, std::int64_t value) {
        std::string b = encoded(spec(1));
        Encoder v;
        v.writeI64(value);
        b.replace(offset, 8, v.bytes());
        return b;
    };
    const std::int64_t big = std::int64_t{1} << 32;
    EXPECT_NE(decodeError(withI64(8, big + 1)).find("priority 4294967297"),
              std::string::npos);
    EXPECT_NE(decodeError(withI64(8, -big)).find("priority -4294967296"),
              std::string::npos);
    EXPECT_NE(decodeError(withI64(17, big + 3)).find("appIndex 4294967299"),
              std::string::npos);
    // In range, the patched fields decode as written.
    const std::string inRange = withI64(8, 2);
    Decoder dec(inRange);
    EXPECT_EQ(ServeJobSpec::decode(dec).priority, 2);
}

TEST_F(ServeManifestTest, BadHeaderThrows)
{
    writeAll("not a manifest at all, definitely long enough");
    EXPECT_THROW(scanManifest(path_), ManifestError);
    writeAll("QS");
    EXPECT_THROW(scanManifest(path_), ManifestError);
    EXPECT_THROW(scanManifest((dir_ / "missing.qsvm").string()),
                 FileError);
}

TEST_F(ServeManifestTest, SpecEncodingRoundTrips)
{
    ServeJobSpec s;
    s.tenantId = 17;
    s.priority = 2;
    s.kind = WorkloadKind::QaoaRing;
    s.seed = 0xDEADBEEFCAFEull;
    s.totalJobs = 123;
    s.scheme = Scheme::Qismet;
    s.withFaults = true;
    s.snapshotEveryIters = 4;
    s.crashPlan = {2, 9, 31};

    Encoder enc;
    s.encode(enc);
    Decoder dec(enc.bytes());
    const ServeJobSpec back = ServeJobSpec::decode(dec);
    EXPECT_EQ(back.tenantId, s.tenantId);
    EXPECT_EQ(back.priority, s.priority);
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_EQ(back.totalJobs, s.totalJobs);
    EXPECT_EQ(back.withFaults, s.withFaults);
    EXPECT_EQ(back.snapshotEveryIters, s.snapshotEveryIters);
    EXPECT_EQ(back.crashPlan, s.crashPlan);
    EXPECT_EQ(back.digest(), s.digest());
}

TEST_F(ServeManifestTest, DecodeRejectsMalformedSpecs)
{
    ServeJobSpec s;
    s.crashPlan = {5, 5}; // not strictly increasing
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.crashPlan = {5, 2};
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.crashPlan.clear();
    s.totalJobs = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.totalJobs = 10;
    s.kind = WorkloadKind::TfimApp;
    s.appIndex = 7;
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST_F(ServeManifestTest, DecodeRejectsBadDeadlineNamingTheField)
{
    // A record on disk is decoded through validate(): a NaN deadline
    // must not decode into a spec that silently has no deadline.
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN(),
                          -1.0,
                          -std::numeric_limits<double>::infinity()};
    for (const double deadline : bad) {
        ServeJobSpec s = spec(1);
        s.deadlineSimSeconds = deadline;
        Encoder enc;
        s.encode(enc);
        Decoder dec(enc.bytes());
        try {
            (void)ServeJobSpec::decode(dec);
            ADD_FAILURE() << "deadline " << deadline << " decoded";
        }
        catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find("deadlineSimSeconds"),
                      std::string::npos)
                << err.what();
        }
    }
}

} // namespace
} // namespace qismet
