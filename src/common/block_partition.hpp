/**
 * @file
 * Fixed-block partitioning for intra-state parallelism and
 * deterministic ordered reductions.
 *
 * The simulation kernels split one large statevector / density matrix
 * across the global ParallelExecutor. The partition is a **pure
 * function of the problem size** — always `kIntraStateBlocks`
 * contiguous, near-equal blocks — and never of the thread count, which
 * is what makes the results bit-identical at 1/2/4/8 threads:
 *
 *   - elementwise kernels (gate application) compute each amplitude
 *     independently, so any block schedule yields identical bits;
 *   - reductions (norms, expectation values, traces) compute one
 *     partial per block, in index order within the block, and fold the
 *     partials serially in block order after the join — the
 *     "unordered-reduction" lint rule's required shape.
 *
 * Below `intraStateParallelThreshold()` elements (1024 — a 10-qubit
 * statevector) everything runs as a single serial sweep in the legacy
 * summation order, so small states (including every golden workload)
 * are byte-identical to the pre-SIMD code. At or above the threshold
 * the blocked shape is used at *every* thread count, including 1, so
 * crossing a thread-count boundary never changes bits. The threshold
 * is a constant, not a runtime knob: moving it moves the summation
 * grouping of every state it crosses, and with it the result bits.
 *
 * The entry points are templates over their body, so below the
 * threshold a kernel call is one inline call that allocates nothing: a
 * std::function there would heap-allocate once per kernel call, since
 * a kernel's captures outgrow its small-buffer storage. Only the
 * blocked path wraps the body for the executor.
 *
 * Nested use is safe: ParallelExecutor::parallelFor degrades to inline
 * serial execution inside an already-parallel region (the energy
 * estimator fans out per-term over the same executor), and the inline
 * path walks the same blocks in the same order.
 */

#ifndef QISMET_COMMON_BLOCK_PARTITION_HPP
#define QISMET_COMMON_BLOCK_PARTITION_HPP

#include <array>
#include <cstddef>
#include <functional>

#include "common/matrix.hpp"

namespace qismet {

/** Fixed block count of every intra-state partition. */
inline constexpr std::size_t kIntraStateBlocks = 16;

/**
 * Minimum state size (elements touched by the sweep) at which kernels
 * split across the pool and reductions switch to the blocked shape:
 * 1024 (a 10-qubit statevector) unless a test has overridden it.
 */
std::size_t intraStateParallelThreshold();

/**
 * Test hook: override the threshold (the batteries probe both sides of
 * the boundary at small widths). 0 restores the default of 1024.
 */
void setIntraStateParallelThreshold(std::size_t elements);

/** Half-open unit range of one block. */
struct BlockRange
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** Block `index` of `units` split into kIntraStateBlocks pieces. */
BlockRange intraStateBlock(std::size_t units, std::size_t index);

namespace detail {

/**
 * Run `body(b, range)` for every non-empty fixed block `b` of [0,
 * units) through the global ParallelExecutor (inline, in order, when it
 * has 1 thread or the caller is already inside a parallel region). The
 * partition's one out-of-line piece: only sweeps at or above the
 * threshold reach it, where a pool dispatch dwarfs the std::function.
 */
void forEachIntraStateBlock(
    std::size_t units,
    const std::function<void(std::size_t, BlockRange)> &body);

/** The fold behind orderedBlockReduce{,Complex}. */
template <typename T, typename BlockFn>
T
orderedBlockFold(std::size_t units, std::size_t elements, BlockFn &blockFn)
{
    if (units == 0)
        return T{};
    if (elements < intraStateParallelThreshold())
        return blockFn(std::size_t{0}, units);
    // Partials land in per-block slots (empty blocks keep their zero);
    // the fold below is serial and in block order, so the grouping is
    // fixed at every thread count.
    std::array<T, kIntraStateBlocks> partial{};
    forEachIntraStateBlock(units, [&](std::size_t b, BlockRange r) {
        partial[b] = blockFn(r.begin, r.end);
    });
    T total{};
    for (std::size_t b = 0; b < kIntraStateBlocks; ++b)
        total += partial[b];
    return total;
}

} // namespace detail

/**
 * Run `fn(begin, end)` over [0, units). Below the threshold (measured
 * in `elements` actually touched) this is one inline call fn(0, units)
 * that allocates nothing; at or above it the fixed blocks are
 * dispatched through the global ParallelExecutor (inline, in order,
 * when it has 1 thread or the caller is already inside a parallel
 * region). `fn` must treat the units independently — elementwise
 * kernels only.
 */
template <typename Fn>
void
forEachUnitBlocked(std::size_t units, std::size_t elements, Fn &&fn)
{
    if (units == 0)
        return;
    if (elements < intraStateParallelThreshold()) {
        fn(std::size_t{0}, units);
        return;
    }
    detail::forEachIntraStateBlock(
        units, [&fn](std::size_t, BlockRange r) { fn(r.begin, r.end); });
}

/**
 * Deterministic ordered reduction over [0, units): below the threshold
 * returns blockFn(0, units) (the legacy serial summation, bit-for-bit);
 * at or above it computes one partial per fixed block (in parallel when
 * possible) and folds them serially in block order — the same grouping
 * at every thread count.
 */
template <typename BlockFn>
double
orderedBlockReduce(std::size_t units, std::size_t elements,
                   BlockFn &&blockFn)
{
    return detail::orderedBlockFold<double>(units, elements, blockFn);
}

/** Complex-valued variant of orderedBlockReduce. */
template <typename BlockFn>
Complex
orderedBlockReduceComplex(std::size_t units, std::size_t elements,
                          BlockFn &&blockFn)
{
    return detail::orderedBlockFold<Complex>(units, elements, blockFn);
}

} // namespace qismet

#endif // QISMET_COMMON_BLOCK_PARTITION_HPP
