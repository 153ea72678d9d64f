/**
 * @file
 * The integer draws of the simulator's shot loops (ShotSampler and
 * Statevector::sample): the guided inverse-CDF search and the integer
 * readout trial. Both take the 53-bit integer k behind a uniform draw
 * (Rng::uniformBits(); uniform() is k·2^-53) and return exactly what
 * the double comparisons they replace return. Sim-internal.
 */

#ifndef QISMET_SIM_CDF_SEARCH_HPP
#define QISMET_SIM_CDF_SEARCH_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/format_double.hpp"

namespace qismet {
namespace detail {

/**
 * Inverse-CDF search keyed by a 53-bit draw k: `find(k)` is the index
 * of the first CDF entry not less than u(k) = (k·2^-53)·total, exactly
 * what `std::lower_bound(cdf.begin(), cdf.end(), uniform() * total)`
 * returns for the draw k, with the same predicate `cdf[i] < u`.
 *
 * The search starts from a guide table over 2^b equal buckets of k,
 * b = min(n + 2, 16) for 2^n outcomes: guide[j] = lower_bound(cdf,
 * u(j·2^(53−b))). u(k) never decreases in k (k·2^-53 is exact and the
 * product with a positive total rounds monotonically), so for a k in
 * bucket j every entry before guide[j] is less than u(k), and stepping
 * forward from guide[j] with the same predicate stops at lower_bound's
 * index, no later than guide[j + 1]. Every bucket is equally likely and
 * the scans of all buckets together pass each entry once, so with four
 * buckets per outcome (below the cap) a search makes at most 1.25
 * compares on average, whatever the distribution's shape.
 *
 * Since k·2^-53 < 1, u(k) never exceeds the total, the last entry, so
 * the result is always a valid index. The object points into `cdf`,
 * which must outlive it and be non-decreasing (any prefix sum of
 * non-negative terms with a finite total is).
 */
class CdfSearch
{
  public:
    /**
     * Build the guide table. Throws std::invalid_argument naming `who`
     * and the total unless the total (the last entry) is finite and
     * positive.
     */
    CdfSearch(std::span<const double> cdf, const char *who)
        : cdf_(cdf.data()), total_(cdf.empty() ? 0.0 : cdf.back())
    {
        if (!(std::isfinite(total_) && total_ > 0.0))
            throw std::invalid_argument(
                std::string(who) + ": distribution total " +
                formatDouble(total_) + " is not finite and positive");
        if (cdf.size() > (std::size_t{1} << 32))
            throw std::invalid_argument(std::string(who) +
                                        ": more than 2^32 outcomes");
        const int n = static_cast<int>(std::bit_width(cdf.size() - 1));
        const int bits = std::min(n + 2, 16);
        shift_ = 53 - bits;
        guide_.resize(std::size_t{1} << bits);
        // The bucket edges' lower bounds, found in one forward sweep:
        // u(j·2^(53−b)) never decreases in j.
        std::size_t i = 0;
        for (std::size_t j = 0; j < guide_.size(); ++j) {
            const double u = draw(static_cast<std::uint64_t>(j) << shift_);
            while (cdf_[i] < u)
                ++i;
            guide_[j] = static_cast<std::uint32_t>(i);
        }
    }

    /** The first index whose entry is not less than u(k). */
    std::size_t find(std::uint64_t k) const
    {
        const double u = draw(k);
        std::size_t i = guide_[k >> shift_];
        while (cdf_[i] < u)
            ++i;
        return i;
    }

    /** log2 of the bucket count: bucket j holds k >> (53 − b) == j. */
    int bucketBits() const { return 53 - shift_; }

  private:
    /** u(k) = uniform() * total for the draw whose integer is k. */
    double draw(std::uint64_t k) const
    {
        return static_cast<double>(k) * 0x1.0p-53 * total_;
    }

    const double *cdf_;
    double total_;
    int shift_ = 0;
    std::vector<std::uint32_t> guide_;
};

/**
 * The integer form of `bernoulli(p)` for p in [0, 1]: `uniform() < p`
 * holds exactly when the draw's integer k is below this threshold.
 * Scaling both sides of k·2^-53 < p by 2^53 is exact (a power of two;
 * p·2^53 neither overflows nor loses a bit, subnormal p included), and
 * for an integer k, k < p·2^53 is k < ceil(p·2^53). The threshold is 0
 * only for p = 0.
 */
inline std::uint64_t
trialThreshold(double p)
{
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

} // namespace detail
} // namespace qismet

#endif // QISMET_SIM_CDF_SEARCH_HPP
