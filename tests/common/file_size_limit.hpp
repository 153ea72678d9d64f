/**
 * @file
 * A process-wide file-size limit for tests of failed writes: while one
 * of these lives, a write that would take a regular file past `bytes`
 * writes what fits and the next write fails with EFBIG, the short write
 * and the error a full disk or quota gives. SIGXFSZ, which the kernel
 * sends with that error, is ignored meanwhile. Both are restored on
 * scope exit.
 */

#ifndef QISMET_TESTS_COMMON_FILE_SIZE_LIMIT_HPP
#define QISMET_TESTS_COMMON_FILE_SIZE_LIMIT_HPP

#include <csignal>
#include <cstdint>
#include <cstdio>

#include <sys/resource.h>

namespace qismet::test {

class FileSizeLimit
{
  public:
    explicit FileSizeLimit(std::uint64_t bytes)
    {
        // Buffered test output must not land in a log file while the
        // limit holds.
        std::fflush(nullptr);
        ::getrlimit(RLIMIT_FSIZE, &saved_);
        savedHandler_ = std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit = saved_;
        limit.rlim_cur = static_cast<rlim_t>(bytes);
        ::setrlimit(RLIMIT_FSIZE, &limit);
    }

    ~FileSizeLimit()
    {
        ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, savedHandler_);
    }

    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;

  private:
    rlimit saved_{};
    void (*savedHandler_)(int) = nullptr;
};

} // namespace qismet::test

#endif // QISMET_TESTS_COMMON_FILE_SIZE_LIMIT_HPP
