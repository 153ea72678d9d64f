#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace qismet {

namespace {

/**
 * Set while a ParallelExecutor region runs on this thread (worker or
 * caller): nested regions run inline rather than re-entering the pool.
 */
thread_local bool t_inParallelRegion = false;

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        throw std::invalid_argument("ThreadPool: zero threads");
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (!task)
        throw std::invalid_argument("ThreadPool::submit: empty task");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_)
            throw std::logic_error("ThreadPool::submit: pool stopped");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

bool
ThreadPool::onWorkerThread() const
{
    const auto self = std::this_thread::get_id();
    for (const auto &w : workers_)
        if (w.get_id() == self)
            return true;
    return false;
}

std::size_t
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

ParallelExecutor::ParallelExecutor(std::size_t threads)
{
    setThreads(threads);
}

std::size_t
ParallelExecutor::threads() const
{
    return threads_;
}

void
ParallelExecutor::setThreads(std::size_t threads)
{
    if (threads == 0)
        threads = ThreadPool::hardwareThreads();
    threads_ = threads;
    pool_.reset(); // lazily recreated at the next parallel region
}

void
ParallelExecutor::forEachIndex(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;

    // Inline paths: single-threaded executor, tiny range, or a nested
    // region (running it through the pool from a worker would deadlock
    // once all workers block on the join).
    if (threads_ <= 1 || n == 1 || t_inParallelRegion) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    {
        // Double-checked under the lock: concurrent regions (serve
        // workers) may race on first use; later reads are safe because
        // every region passes through this acquire/release pair.
        std::lock_guard<std::mutex> lock(poolInit_);
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>(threads_);
    }

    // Dynamic index claiming: workers race on `next`, but every index
    // runs exactly once and tasks are independent, so results do not
    // depend on which worker claims which index.
    struct Region
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::exception_ptr error;
        std::mutex errorMutex;
        std::mutex doneMutex;
        std::condition_variable doneCv;
    };
    auto region = std::make_shared<Region>();

    const std::size_t workers = std::min(threads_, n);
    auto body = [region, n, &fn] {
        const bool was_in_region = t_inParallelRegion;
        t_inParallelRegion = true;
        for (;;) {
            const std::size_t i =
                region->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(region->errorMutex);
                if (!region->error)
                    region->error = std::current_exception();
            }
            const std::size_t finished =
                region->done.fetch_add(1, std::memory_order_acq_rel) + 1;
            if (finished == n) {
                std::lock_guard<std::mutex> lock(region->doneMutex);
                region->doneCv.notify_all();
            }
        }
        t_inParallelRegion = was_in_region;
    };

    // The calling thread participates too: it would otherwise idle at
    // the join, and its participation bounds the wait even if the pool
    // is busy with someone else's tasks.
    for (std::size_t w = 1; w < workers; ++w)
        pool_->submit(body);
    body();

    {
        std::unique_lock<std::mutex> lock(region->doneMutex);
        region->doneCv.wait(lock, [&] {
            return region->done.load(std::memory_order_acquire) == n;
        });
    }
    if (region->error)
        std::rethrow_exception(region->error);
}

ParallelExecutor &
ParallelExecutor::global()
{
    static ParallelExecutor executor = [] {
        const char *env = std::getenv("QISMET_THREADS");
        if (env == nullptr || *env == '\0')
            return ParallelExecutor(1);
        return ParallelExecutor(parseThreadCount("QISMET_THREADS", env));
    }();
    return executor;
}

void
ParallelExecutor::setGlobalThreads(std::size_t threads)
{
    global().setThreads(threads);
}

std::size_t
parseThreadCount(std::string_view name, std::string_view value)
{
    // from_chars into an unsigned type takes digits only: no sign, no
    // whitespace, no prefix. The end check rejects trailing characters.
    std::size_t threads = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, threads);
    if (ec != std::errc() || ptr != end)
        throw std::invalid_argument(
            std::string(name) + ": bad thread count '" + std::string(value) +
            "' (want a non-negative integer; 0 = all hardware threads)");
    return threads;
}

} // namespace qismet
