/**
 * @file
 * Unit tests for the atomic-file layer: FNV-1a vectors, whole-file
 * atomic replacement, and the append-only DurableFile used by the run
 * journal.
 */

#include "common/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include <unistd.h>

#include "common/file_size_limit.hpp"
#include "common/scratch_dir.hpp"

namespace qismet {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory per test, cleaned up on fixture teardown. */
class AtomicFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test::scratchDirForCurrentTest("qismet_atomic_file");
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

TEST(Fnv1a, MatchesReferenceVectors)
{
    // Standard 64-bit FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(Fnv1a, SeedChainsAcrossCalls)
{
    // Hashing in two chunks with seed chaining equals one-shot hashing.
    const std::string text = "write-ahead journal";
    const std::uint64_t once = fnv1a64(text);
    const std::uint64_t chained =
        fnv1a64(text.substr(5), fnv1a64(text.substr(0, 5)));
    EXPECT_EQ(chained, once);
}

TEST_F(AtomicFileTest, WriteReadRoundTrip)
{
    const std::string p = path("blob.bin");
    std::string payload("binary\0payload", 14);
    payload += '\x7f';
    atomicWriteFile(p, payload);
    EXPECT_TRUE(fileExists(p));
    EXPECT_EQ(readFile(p), payload);
}

TEST_F(AtomicFileTest, ReplacesExistingFileCompletely)
{
    const std::string p = path("replace.bin");
    atomicWriteFile(p, std::string(4096, 'A'));
    atomicWriteFile(p, "short");
    EXPECT_EQ(readFile(p), "short");
}

TEST_F(AtomicFileTest, LeavesNoTempFileBehind)
{
    const std::string p = path("clean.bin");
    atomicWriteFile(p, "data");
    EXPECT_FALSE(fileExists(p + ".tmp"));
    std::size_t entries = 0;
    for (const auto &entry : fs::directory_iterator(dir_)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFileTest, ReadFileThrowsOnMissingPath)
{
    EXPECT_THROW((void)readFile(path("nope.bin")), FileError);
    EXPECT_FALSE(fileExists(path("nope.bin")));
}

TEST_F(AtomicFileTest, ReadFileNamesTheMissingPath)
{
    const std::string p = path("nope.bin");
    try {
        (void)readFile(p);
        FAIL() << "read a missing file";
    }
    catch (const FileError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "cannot open '" + p + "' for reading");
    }
}

TEST_F(AtomicFileTest, ReadFileRoundTripsEverySizeAroundItsChunk)
{
    // One read into a buffer sized from fstat, then chunks of 4096 to
    // the end: sizes on both sides of a chunk, and a large file.
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, std::size_t{4095},
          std::size_t{4096}, std::size_t{4097}, std::size_t{8192},
          std::size_t{(1u << 20) + 17}}) {
        std::string payload(size, '\0');
        for (std::size_t i = 0; i < size; ++i)
            payload[i] = static_cast<char>((i * 131u + 7u) & 0xff);
        const std::string p = path("sized.bin");
        atomicWriteFile(p, payload);
        EXPECT_EQ(readFile(p), payload) << size;
    }
}

TEST_F(AtomicFileTest, ReadFileReadsAFileFstatSizesAsEmpty)
{
    // procfs files report size 0 and still hold bytes: the chunked read
    // past the fstat size must find them.
    if (!fs::exists("/proc/self/status"))
        GTEST_SKIP() << "no procfs here";
    const std::string status = readFile("/proc/self/status");
    EXPECT_NE(status.find("Name:"), std::string::npos);
}

TEST_F(AtomicFileTest, AtomicWriteThrowsOnBadDirectory)
{
    EXPECT_THROW(atomicWriteFile(path("no/such/dir/x.bin"), "data"),
                 FileError);
}

TEST_F(AtomicFileTest, DurableFileAppendsAndTracksOffset)
{
    const std::string p = path("journal.bin");
    {
        DurableFile file(p, DurableFile::Mode::Truncate);
        EXPECT_EQ(file.offset(), 0u);
        file.append("alpha");
        file.append("beta");
        file.sync();
        EXPECT_EQ(file.offset(), 9u);
    }
    EXPECT_EQ(readFile(p), "alphabeta");
}

TEST_F(AtomicFileTest, DurableFileAppendModeContinuesAtEnd)
{
    const std::string p = path("journal.bin");
    {
        DurableFile file(p, DurableFile::Mode::Truncate);
        file.append("prefix|");
    }
    {
        DurableFile file(p, DurableFile::Mode::Append);
        EXPECT_EQ(file.offset(), 7u);
        file.append("suffix");
    }
    EXPECT_EQ(readFile(p), "prefix|suffix");
}

TEST_F(AtomicFileTest, DurableFileTruncateToDropsTail)
{
    const std::string p = path("journal.bin");
    DurableFile file(p, DurableFile::Mode::Truncate);
    file.append("keep-this-torn-tail");
    file.truncateTo(9);
    EXPECT_EQ(file.offset(), 9u);
    file.append("!");
    file.sync();
    EXPECT_EQ(readFile(p), "keep-this!");
}

TEST_F(AtomicFileTest, DurableFileSyncedOffsetTracksLastSync)
{
    const std::string p = path("journal.bin");
    DurableFile file(p, DurableFile::Mode::Truncate);
    EXPECT_EQ(file.syncedOffset(), 0u);
    file.append("synced|");
    file.sync();
    EXPECT_EQ(file.syncedOffset(), 7u);
    file.append("pending");
    EXPECT_EQ(file.syncedOffset(), 7u); // append alone is not durable
    // Truncating below the synced prefix shrinks it; truncating inside
    // the unsynced tail leaves it alone.
    file.truncateTo(10);
    EXPECT_EQ(file.syncedOffset(), 7u);
    file.truncateTo(3);
    EXPECT_EQ(file.syncedOffset(), 3u);
    file.sync();
    EXPECT_EQ(file.syncedOffset(), 3u);
}

TEST_F(AtomicFileTest, DurableFileTruncateModeEmptiesExistingFile)
{
    const std::string p = path("journal.bin");
    atomicWriteFile(p, "old contents");
    DurableFile file(p, DurableFile::Mode::Truncate);
    EXPECT_EQ(file.offset(), 0u);
    file.append("new");
    file.sync();
    EXPECT_EQ(readFile(p), "new");
}

TEST_F(AtomicFileTest, DurableFileCutsAFailedAppendBack)
{
    // An append that fails part-way (a full disk; here a file-size
    // limit that lets 6 of its 32 bytes through) leaves none of its
    // bytes behind, so the next append lands where it began.
    const std::string p = path("journal.bin");
    DurableFile file(p, DurableFile::Mode::Truncate);
    file.append("head");
    file.sync();
    std::string error;
    {
        const test::FileSizeLimit limit(10);
        try {
            file.append(std::string(32, 'x'));
        }
        catch (const FileError &e) {
            error = e.what();
        }
    }
    EXPECT_NE(error.find("write '" + p + "'"), std::string::npos) << error;
    EXPECT_EQ(file.offset(), 4u);
    EXPECT_EQ(fs::file_size(p), 4u);
    file.append("tail");
    file.sync();
    EXPECT_EQ(file.syncedOffset(), 8u);
    EXPECT_EQ(readFile(p), "headtail");
}

} // namespace
} // namespace qismet
