#include "common/block_partition.hpp"

#include <array>
#include <atomic>

#include "common/thread_pool.hpp"

namespace qismet {

namespace {

constexpr std::size_t kDefaultThreshold = 1024;

/** 0 = the default threshold. */
std::atomic<std::size_t> g_thresholdOverride{0};

} // namespace

std::size_t
intraStateParallelThreshold()
{
    const std::size_t override_ =
        g_thresholdOverride.load(std::memory_order_relaxed);
    return override_ != 0 ? override_ : kDefaultThreshold;
}

void
setIntraStateParallelThreshold(std::size_t elements)
{
    g_thresholdOverride.store(elements, std::memory_order_relaxed);
}

BlockRange
intraStateBlock(std::size_t units, std::size_t index)
{
    // ceil-divided block size: the first blocks absorb the remainder,
    // trailing blocks may be empty for tiny unit counts.
    const std::size_t per =
        (units + kIntraStateBlocks - 1) / kIntraStateBlocks;
    const std::size_t begin = index * per;
    const std::size_t end = begin + per;
    return BlockRange{begin < units ? begin : units,
                      end < units ? end : units};
}

void
forEachUnitBlocked(std::size_t units, std::size_t elements,
                   const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (units == 0)
        return;
    if (elements < intraStateParallelThreshold()) {
        fn(0, units);
        return;
    }
    ParallelExecutor::global().parallelFor(
        kIntraStateBlocks, [&](std::size_t b) {
            const BlockRange r = intraStateBlock(units, b);
            if (r.begin < r.end)
                fn(r.begin, r.end);
        });
}

double
orderedBlockReduce(
    std::size_t units, std::size_t elements,
    const std::function<double(std::size_t, std::size_t)> &blockFn)
{
    if (units == 0)
        return 0.0;
    if (elements < intraStateParallelThreshold())
        return blockFn(0, units);
    // Partials land in per-block slots; the fold below is serial and in
    // block order, so the grouping is fixed at every thread count.
    std::array<double, kIntraStateBlocks> partial{};
    ParallelExecutor::global().parallelFor(
        kIntraStateBlocks, [&](std::size_t b) {
            const BlockRange r = intraStateBlock(units, b);
            partial[b] = r.begin < r.end ? blockFn(r.begin, r.end) : 0.0;
        });
    double total = 0.0;
    for (std::size_t b = 0; b < kIntraStateBlocks; ++b)
        total += partial[b];
    return total;
}

Complex
orderedBlockReduceComplex(
    std::size_t units, std::size_t elements,
    const std::function<Complex(std::size_t, std::size_t)> &blockFn)
{
    if (units == 0)
        return Complex(0.0, 0.0);
    if (elements < intraStateParallelThreshold())
        return blockFn(0, units);
    std::array<Complex, kIntraStateBlocks> partial{};
    ParallelExecutor::global().parallelFor(
        kIntraStateBlocks, [&](std::size_t b) {
            const BlockRange r = intraStateBlock(units, b);
            partial[b] = r.begin < r.end ? blockFn(r.begin, r.end)
                                         : Complex(0.0, 0.0);
        });
    Complex total(0.0, 0.0);
    for (std::size_t b = 0; b < kIntraStateBlocks; ++b)
        total += partial[b];
    return total;
}

} // namespace qismet
