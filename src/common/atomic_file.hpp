/**
 * @file
 * Crash-safe file primitives: every byte the project persists (journals,
 * snapshot logs, serve manifests, bench CSVs) flows through this layer.
 *
 * Two write disciplines cover every durability need:
 *
 *  - atomicWriteFile: whole-file replacement via write-temp -> fsync ->
 *    rename -> fsync(dir). Readers see either the complete old file or
 *    the complete new file, never a torn mixture — rename(2) is atomic
 *    on POSIX filesystems. Used for CSV dumps.
 *  - DurableFile: an append-only descriptor with explicit sync(), for
 *    the append-only logs (journal, snapshot log, serve manifest) whose
 *    tail may legitimately be torn by a crash. Torn tails are the
 *    *reader's* problem (the framed-log format frames and checksums
 *    every record so a partial append is detected and discarded on
 *    recovery).
 *
 * The qismet-lint rule `raw-file-write` flags persistence writes under
 * src/ that bypass this layer.
 */

#ifndef QISMET_COMMON_ATOMIC_FILE_HPP
#define QISMET_COMMON_ATOMIC_FILE_HPP

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qismet {

/** Raised when a durable-file operation fails (message carries errno). */
class FileError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** FNV-1a offset basis (the conventional 64-bit seed). */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;

/**
 * 64-bit FNV-1a digest of a byte range. Deterministic and
 * platform-independent; used to checksum journal frames and snapshot
 * payloads.
 */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed = kFnvOffsetBasis);

/** FNV-1a over a string view. */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = kFnvOffsetBasis);

/** True when a regular file exists at the path. */
bool fileExists(const std::string &path);

/**
 * Read a whole file into memory.
 * @throws FileError when the file cannot be opened or read.
 */
std::string readFile(const std::string &path);

/**
 * Atomically replace `path` with `bytes`.
 *
 * Writes `path + ".tmp"`, fsyncs it, renames it over `path`, then
 * fsyncs the containing directory so the rename itself is durable. A
 * crash at any instant leaves either the previous complete file or the
 * new complete file (plus, at worst, an orphaned `.tmp` that the next
 * atomic write truncates).
 *
 * @throws FileError on any I/O failure.
 */
void atomicWriteFile(const std::string &path, std::string_view bytes);

/**
 * Append-only file handle with explicit durability control — the
 * substrate of the run journal.
 *
 * Not thread-safe: one thread at a time may use it (CheckpointManager
 * hands its two files to its committer thread and waits for them back).
 */
class DurableFile
{
  public:
    enum class Mode
    {
        Truncate, ///< Start fresh (create/empty the file).
        Append,   ///< Keep existing contents; position at the end.
    };

    /** @throws FileError when the file cannot be opened. */
    DurableFile(const std::string &path, Mode mode);
    ~DurableFile();

    DurableFile(const DurableFile &) = delete;
    DurableFile &operator=(const DurableFile &) = delete;

    /**
     * Append bytes at the current offset. @throws FileError. A failed
     * append cuts the file back to offset() before it throws, so the
     * next append lands where this one began, never after a partial
     * write. When that cut fails too, every later append and sync()
     * throws, naming the first error.
     */
    void append(std::string_view bytes);

    /**
     * fsync the descriptor (make all appends durable). Returns without
     * an fsync when nothing was appended or truncated since the last
     * successful sync(): there is nothing to flush.
     */
    void sync();

    /**
     * Truncate the file to `offset` bytes and continue appending from
     * there (recovery: drop a torn tail). @throws FileError.
     */
    void truncateTo(std::uint64_t offset);

    /** Current append offset (== file size). */
    std::uint64_t offset() const { return offset_; }

    /**
     * Offset covered by the last successful sync(): every byte before
     * it survives an OS crash. 0 until the first sync().
     */
    std::uint64_t syncedOffset() const { return syncedOffset_; }

    const std::string &path() const { return path_; }

  private:
    /** @throws FileError when a failed append could not be cut back. */
    void refuseIfBroken() const;

    std::string path_;
    int fd_ = -1;
    /** The error of an append whose partial bytes could not be cut
     *  back, or "": past it the file's tail is unknown. */
    std::string broken_;
    std::uint64_t offset_ = 0;
    std::uint64_t syncedOffset_ = 0;
    /** Changed since the last sync(). A fresh handle starts dirty: the
     *  file may hold bytes that nobody has synced yet. */
    bool dirty_ = true;
};

} // namespace qismet

#endif // QISMET_COMMON_ATOMIC_FILE_HPP
