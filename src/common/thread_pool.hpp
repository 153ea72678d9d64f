/**
 * @file
 * Fixed-size thread pool and the deterministic parallel-execution layer
 * built on top of it.
 *
 * QISMET's simulated-job throughput is the hot path of every figure
 * reproduction: the accept/reject controller doubles circuit volume per
 * job (current + reference rerun) and every rejected iteration re-runs
 * the whole job. The engine here fans out the three independent levels
 * of that workload — measurement groups inside one energy estimate,
 * circuit evaluations inside one job, and whole VQA trials in the bench
 * layer — without changing a single numerical result.
 *
 * Determinism contract (DESIGN.md "Parallel execution & determinism
 * model"): no code in this library may let thread scheduling influence
 * either the order of floating-point reductions or the consumption of
 * random numbers. Concretely,
 *  - every stochastic task receives its own Rng sub-stream, derived
 *    from the owning component's seed Rng *before* the fan-out
 *    (Rng::split / Rng::splitAt), never from a shared stream raced by
 *    workers;
 *  - parallel reductions write per-index slots and are folded serially
 *    in index order after the join.
 * Under this contract `--threads=N` output is bit-identical to
 * `--threads=1` for every N, which is what makes the parallel engine
 * safely landable under the reproducibility guarantees of the benches.
 */

#ifndef QISMET_COMMON_THREAD_POOL_HPP
#define QISMET_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace qismet {

/**
 * Fixed-size worker pool with a single shared FIFO queue.
 *
 * Deliberately work-stealing-free: tasks in this library are coarse
 * (one circuit simulation, one VQA trial), so a mutex-guarded queue is
 * contention-free in practice and keeps the scheduling model simple
 * enough to reason about under TSan.
 */
class ThreadPool
{
  public:
    /**
     * Start `threads` workers.
     * @param threads Worker count; at least 1.
     */
    explicit ThreadPool(std::size_t threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task; runnable from any thread. */
    void submit(std::function<void()> task);

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /** True when called from one of this pool's worker threads. */
    bool onWorkerThread() const;

    /** Best guess at the machine's usable hardware concurrency. */
    static std::size_t hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

/**
 * Deterministic fan-out helper over an optional ThreadPool.
 *
 * With `threads() <= 1` every call runs inline on the caller's thread;
 * otherwise index ranges are executed by the pool. Nested calls (a
 * parallel region entered from inside a worker task) degrade to inline
 * serial execution instead of deadlocking on the shared queue, so
 * callers never need to know whether they are already inside a region.
 *
 * All entry points guarantee: the function observes every index exactly
 * once, exceptions from tasks are rethrown on the calling thread (first
 * one wins), and the call returns only after all indices completed.
 */
class ParallelExecutor
{
  public:
    /** Executor with the given worker count (1 = always inline). */
    explicit ParallelExecutor(std::size_t threads = 1);

    /** Configured worker count. */
    std::size_t threads() const;

    /**
     * Reconfigure the worker count, recreating the pool. Not safe to
     * call concurrently with running regions.
     * @param threads New count; 0 means hardwareThreads().
     */
    void setThreads(std::size_t threads);

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * Tasks must be independent; the scheduling order is unspecified
     * (which is why the determinism contract forbids shared mutable
     * state, including shared Rngs, inside fn). `fn` is passed on by
     * reference (a std::reference_wrapper, which std::function holds
     * in place), so the call allocates nothing on the inline path.
     */
    template <typename Fn>
    void parallelFor(std::size_t n, Fn &&fn) const
    {
        forEachIndex(n, std::ref(fn));
    }

    /**
     * Map [0, n) through fn into a vector ordered by index — the
     * deterministic-reduction building block: compute in parallel,
     * fold the returned vector serially.
     */
    template <typename T>
    std::vector<T> map(std::size_t n,
                       const std::function<T(std::size_t)> &fn) const
    {
        std::vector<T> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * The process-wide executor used by the library's internal fan-out
     * points (energy estimator, job executor, bench trials). Starts
     * with 1 thread unless the QISMET_THREADS environment variable is
     * set (parseThreadCount; an empty value counts as unset);
     * reconfigure via setGlobalThreads (the bench `--threads` flag
     * does exactly that).
     * @throws std::invalid_argument on first use if QISMET_THREADS is
     *         not a thread count.
     */
    static ParallelExecutor &global();

    /** Reconfigure the global executor (0 = hardwareThreads()). */
    static void setGlobalThreads(std::size_t threads);

  private:
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn) const;

    std::size_t threads_ = 1;
    /** Lazily (re)created when threads_ > 1. */
    mutable std::unique_ptr<ThreadPool> pool_;
    /**
     * Guards lazy pool creation: the serve layer enters parallel
     * regions from many scheduler workers at once, so first-use must
     * not race. setThreads() remains non-concurrent by contract.
     */
    mutable std::mutex poolInit_;
};

/**
 * Parse a worker-thread count given through the flag or environment
 * variable `name`: decimal digits only, with nothing before or after
 * them, in range for std::size_t. 0 means all hardware threads (see
 * ParallelExecutor::setThreads). QISMET_THREADS and every `--threads`
 * flag (benches, examples, serve CLIs) parse through here.
 * @throws std::invalid_argument naming `name` and `value` otherwise.
 */
std::size_t parseThreadCount(std::string_view name, std::string_view value);

} // namespace qismet

#endif // QISMET_COMMON_THREAD_POOL_HPP
