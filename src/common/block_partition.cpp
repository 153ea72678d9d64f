#include "common/block_partition.hpp"

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

namespace detail {

void
forEachIntraStateBlock(
    std::size_t units,
    const std::function<void(std::size_t, BlockRange)> &body)
{
    ParallelExecutor::global().parallelFor(
        kIntraStateBlocks, [&](std::size_t b) {
            const BlockRange r = intraStateBlock(units, b);
            if (r.begin < r.end)
                body(b, r);
        });
}

} // namespace detail

} // namespace qismet
