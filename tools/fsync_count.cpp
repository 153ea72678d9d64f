/**
 * @file
 * LD_PRELOAD shim that counts the durability calls a process makes:
 * fsync, fdatasync and rename, and the write and pwrite calls on
 * descriptors above 2 (files and sockets, not the standard streams).
 * Each call is counted and forwarded to the C library; at exit the
 * counts go to stderr as one line,
 *
 *     fsync_count: fsync N fdatasync N rename N write N pwrite N
 *
 * A process-death test cannot see a missing or a redundant fsync, nor
 * frames written one syscall at a time instead of in one batch, so
 * tools/ci.sh counts them around a checkpointed run:
 *
 *     LD_PRELOAD=build/tools/libfsync_count.so \
 *         build/examples/checkpoint_resume --app 1 --jobs 400 ...
 *
 * A process that ends in std::_Exit prints nothing.
 */

#include <atomic>
#include <cstdio>
#include <cstring>

#include <dlfcn.h>
#include <sys/types.h>

namespace {

std::atomic<unsigned long> fsyncs{0};
std::atomic<unsigned long> fdatasyncs{0};
std::atomic<unsigned long> renames{0};
std::atomic<unsigned long> writes{0};
std::atomic<unsigned long> pwrites{0};

/** The next definition of `name` after this shim's: the C library's. */
template <typename Fn>
Fn
nextDefinition(const char *name)
{
    void *symbol = ::dlsym(RTLD_NEXT, name);
    Fn fn = nullptr;
    static_assert(sizeof(fn) == sizeof(symbol));
    std::memcpy(&fn, &symbol, sizeof(fn));
    return fn;
}

struct Report
{
    Report() = default;
    Report(const Report &) = delete;
    Report &operator=(const Report &) = delete;
    ~Report()
    {
        std::fprintf(stderr,
                     "fsync_count: fsync %lu fdatasync %lu rename %lu "
                     "write %lu pwrite %lu\n",
                     fsyncs.load(), fdatasyncs.load(), renames.load(),
                     writes.load(), pwrites.load());
    }
};

const Report report;

} // namespace

extern "C" int
fsync(int fd)
{
    static const auto real = nextDefinition<int (*)(int)>("fsync");
    fsyncs.fetch_add(1);
    return real(fd);
}

extern "C" int
fdatasync(int fd)
{
    static const auto real = nextDefinition<int (*)(int)>("fdatasync");
    fdatasyncs.fetch_add(1);
    return real(fd);
}

extern "C" int
rename(const char *from, const char *to) noexcept
{
    static const auto real =
        nextDefinition<int (*)(const char *, const char *)>("rename");
    renames.fetch_add(1);
    return real(from, to);
}

extern "C" ssize_t
write(int fd, const void *buf, size_t count)
{
    static const auto real =
        nextDefinition<ssize_t (*)(int, const void *, size_t)>("write");
    if (fd > 2)
        writes.fetch_add(1);
    return real(fd, buf, count);
}

extern "C" ssize_t
pwrite(int fd, const void *buf, size_t count, off_t offset)
{
    static const auto real =
        nextDefinition<ssize_t (*)(int, const void *, size_t, off_t)>(
            "pwrite");
    if (fd > 2)
        pwrites.fetch_add(1);
    return real(fd, buf, count, offset);
}
