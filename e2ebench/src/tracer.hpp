/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * Spans are recorded from the benchmark's own code, around calls into
 * the library's public functions; nothing inside src/ is instrumented.
 * Each span carries its name, the span that caused it, the id of the
 * run (or serve job) it belongs to, and a steady_clock interval. The
 * recorder is single-threaded: every traced call happens on the
 * benchmark's main thread. Spans stay in memory and are written out
 * once, as Chrome trace-event JSON (loadable in Perfetto), when the
 * benchmark ends.
 */

#ifndef QISMET_E2EBENCH_TRACER_HPP
#define QISMET_E2EBENCH_TRACER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded span; times are nanoseconds since the tracer's epoch. */
struct Span
{
    const char *name = "";    ///< static string, "<layer>.<operation>"
    std::uint32_t parent = 0; ///< id of the causing span; 0 = none
    std::uint64_t run = 0;    ///< run / serve-job id the span belongs to
    std::uint32_t lane = 0;   ///< Chrome thread lane (0 = main thread)
    std::int64_t begin = 0;
    std::int64_t end = -1; ///< -1 while open
};

/** Count and summed duration of every span with one name. */
struct SpanStat
{
    std::uint64_t count = 0;
    double totalNs = 0.0;

    double meanUs() const
    {
        return count == 0 ? 0.0
                          : totalNs / 1e3 / static_cast<double>(count);
    }
    double meanMs() const { return meanUs() / 1e3; }
    double totalUs() const { return totalNs / 1e3; }
};

class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    /** Nanoseconds since the epoch. */
    std::int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    }

    /** Open a span now; returns its id (ids start at 1). */
    std::uint32_t open(const char *name, std::uint32_t parent,
                       std::uint64_t run);

    /** Close the span `id` now. */
    void close(std::uint32_t id);

    /** Record a span observed after the fact (serve polling). */
    void record(const char *name, std::uint64_t run, std::uint32_t lane,
                Clock::time_point begin, Clock::time_point end);

    /** Count and total duration of the spans named `name`. */
    SpanStat stat(std::string_view name) const;

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span as a Chrome trace-event "X" event; each carries
     * its id, parent id and run id in `args`. `metadata` is a JSON
     * object stored under "otherData".
     */
    void writeChromeJson(const std::string &path,
                         const std::string &metadata) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span: open on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint32_t parent,
               std::uint64_t run)
        : tracer_(tracer), id_(tracer.open(name, parent, run))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    std::uint32_t id_;
};

} // namespace e2e

#endif // QISMET_E2EBENCH_TRACER_HPP
