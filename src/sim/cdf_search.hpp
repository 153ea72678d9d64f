/**
 * @file
 * Inverse-CDF search shared by the simulator's shot samplers
 * (ShotSampler and Statevector::sample). Sim-internal.
 */

#ifndef QISMET_SIM_CDF_SEARCH_HPP
#define QISMET_SIM_CDF_SEARCH_HPP

#include <cstddef>
#include <span>

namespace qismet {
namespace detail {

/**
 * Index of the first entry of `cdf` that is not less than `u`: exactly
 * what `std::lower_bound(cdf.begin(), cdf.end(), u)` returns, with the
 * same predicate `cdf[i] < u`, but found without a branch on the data.
 * Each halving step moves the base by `half` or by nothing (a
 * conditional move, not a jump); the trip count depends on the size
 * alone, so the loop never mispredicts.
 *
 * Because the predicate is the same, flat CDF segments (zero-probability
 * outcomes) and `u` equal to an entry resolve to the same index as
 * `std::lower_bound`, and so does a NaN `u` (index 0). Requires a
 * non-empty, non-decreasing `cdf`; the result is `cdf.size()` only when
 * every entry is less than `u`.
 */
inline std::size_t
cdfLowerBound(std::span<const double> cdf, double u)
{
    const double *data = cdf.data();
    std::size_t base = 0;
    std::size_t len = cdf.size();
    while (len > 1) {
        const std::size_t half = len / 2;
        base = data[base + half] < u ? base + half : base;
        len -= half;
    }
    return base + static_cast<std::size_t>(data[base] < u);
}

} // namespace detail
} // namespace qismet

#endif // QISMET_SIM_CDF_SEARCH_HPP
