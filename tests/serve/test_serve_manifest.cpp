#include "serve/manifest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "common/scratch_dir.hpp"

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

} // namespace
} // namespace qismet
