#include "common/atomic_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>

#include <fcntl.h>
#include <unistd.h>

namespace qismet {

namespace {

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    throw FileError(what + " '" + path + "': " + std::strerror(errno));
}

/** Directory part of a path ("." when there is no separator). */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/** fsync a directory so a completed rename inside it is durable. */
void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        throwErrno("open directory", dir);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        throwErrno("fsync directory", dir);
}

/** Write the whole buffer to the descriptor, retrying short writes. */
void
writeAll(int fd, std::string_view bytes, const std::string &path)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("write", path);
        }
        done += static_cast<std::size_t>(n);
    }
}

} // namespace

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ull;
    }
    return hash;
}

std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t seed)
{
    return fnv1a64(bytes.data(), bytes.size(), seed);
}

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::string
readFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw FileError("cannot open '" + path + "' for reading");
    // read() into `into` until it is full or the file ends, retrying
    // short reads and EINTR; false on a read error.
    auto readInto = [fd](char *into, std::size_t size, std::size_t &done) {
        done = 0;
        while (done < size) {
            const ssize_t n = ::read(fd, into + done, size - done);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (n == 0)
                break;
            done += static_cast<std::size_t>(n);
        }
        return true;
    };
    // One buffer sized from fstat and read straight into; then on to
    // the end in chunks, for a file that grew after the fstat (an
    // unchanged one costs one more read, which returns 0).
    struct stat st = {};
    std::string bytes(::fstat(fd, &st) == 0 && st.st_size > 0
                          ? static_cast<std::size_t>(st.st_size)
                          : 0,
                      '\0');
    std::size_t done = 0;
    bool ok = readInto(bytes.data(), bytes.size(), done);
    bool more = ok && done == bytes.size();
    bytes.resize(done);
    char chunk[4096];
    while (more) {
        ok = readInto(chunk, sizeof chunk, done);
        bytes.append(chunk, done);
        more = ok && done == sizeof chunk;
    }
    ::close(fd);
    if (!ok)
        throw FileError("read error on '" + path + "'");
    return bytes;
}

void
atomicWriteFile(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throwErrno("open temp file", tmp);
    try {
        writeAll(fd, bytes, tmp);
        if (::fsync(fd) != 0)
            throwErrno("fsync", tmp);
    }
    catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    if (::close(fd) != 0)
        throwErrno("close", tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
        throwErrno("rename temp over", path);
    }
    syncDir(dirOf(path));
}

DurableFile::DurableFile(const std::string &path, Mode mode)
    : path_(path)
{
    int flags = O_WRONLY | O_CREAT;
    if (mode == Mode::Truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0)
        throwErrno("open durable file", path);
    if (mode == Mode::Append) {
        const off_t end = ::lseek(fd_, 0, SEEK_END);
        if (end < 0) {
            ::close(fd_);
            fd_ = -1;
            throwErrno("seek to end of", path);
        }
        offset_ = static_cast<std::uint64_t>(end);
    }
}

DurableFile::~DurableFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
DurableFile::refuseIfBroken() const
{
    if (!broken_.empty())
        throw FileError("'" + path_ +
                        "' refuses further writes: a failed append could "
                        "not be cut back (" +
                        broken_ + ")");
}

void
DurableFile::append(std::string_view bytes)
{
    refuseIfBroken();
    try {
        writeAll(fd_, bytes, path_);
    }
    catch (const FileError &error) {
        // The descriptor has moved past whatever part of `bytes` was
        // written; cut that part off, or the next append would land
        // behind a torn frame in the middle of the log.
        const auto at = static_cast<off_t>(offset_);
        if (::ftruncate(fd_, at) != 0 || ::lseek(fd_, at, SEEK_SET) < 0)
            broken_ = error.what();
        dirty_ = true;
        throw;
    }
    offset_ += bytes.size();
    dirty_ = true;
}

void
DurableFile::sync()
{
    refuseIfBroken();
    if (!dirty_)
        return;
    if (::fsync(fd_) != 0)
        throwErrno("fsync", path_);
    syncedOffset_ = offset_;
    dirty_ = false;
}

void
DurableFile::truncateTo(std::uint64_t offset)
{
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0)
        throwErrno("truncate", path_);
    if (::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0)
        throwErrno("seek", path_);
    offset_ = offset;
    syncedOffset_ = std::min(syncedOffset_, offset);
    dirty_ = true;
}

} // namespace qismet
