/**
 * @file
 * The integer draws of the simulator's shot loops (ShotSampler and
 * Statevector::sample): the guided inverse-CDF search over integer
 * thresholds and the integer readout trial. Both take the 53-bit
 * integer k behind a uniform draw (Rng::uniformBits(); uniform() is
 * k·2^-53) and return exactly what the double comparisons they replace
 * return. Sim-internal.
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
 * The search compares integers only. u(k) never decreases in k (k·2^-53
 * is exact and the product with a positive total rounds monotonically),
 * so `cdf[i] < u(k)` holds exactly for the draws k ≥ K_i, where the
 * threshold K_i is the least draw that passes it (2^53, past every
 * draw, when none does). lower_bound's index is then the first i with
 * K_i > k. Each K_i is found with the predicate itself: from the
 * quotient cdf[i]/total·2^53, a gallop to a bracket of the boundary and
 * a bisection inside it, so it needs no rounding argument. With a
 * subnormal total u(k) stays flat over long runs of consecutive draws,
 * so the quotient can be far off; the gallop and the bisection each
 * take at most 54 steps.
 *
 * The search starts from a guide table over 2^b equal buckets of k,
 * b = min(n + 2, 16) for 2^n outcomes: guide[j], the count of K_i ≤
 * j·2^(53−b), is lower_bound's index at the bucket's first draw. K_i
 * never decreases in i (the CDF does not), so for a k in bucket j every
 * entry before guide[j] has K_i ≤ k, and stepping forward from guide[j]
 * while K_i ≤ k stops at lower_bound's index, no later than
 * guide[j + 1]. Every bucket is equally likely and the scans of all
 * buckets together pass each entry once, so with four buckets per
 * outcome (below the cap) a scan takes at most 0.25 steps on average,
 * whatever the distribution's shape; `find` takes the first step
 * without a branch.
 *
 * Since k·2^-53 < 1, u(k) never exceeds the total, the last entry, so
 * the last K_i is 2^53 and the result is always a valid index. The CDF
 * must be non-decreasing (any prefix sum of non-negative terms with a
 * finite total is); it is read only while the object is built.
 */
class CdfSearch
{
  public:
    /**
     * Build the thresholds and the guide table. Throws
     * std::invalid_argument naming `who` and the total unless the total
     * (the last entry) is finite and positive.
     */
    CdfSearch(std::span<const double> cdf, const char *who)
    {
        const double total = cdf.empty() ? 0.0 : cdf.back();
        if (!(std::isfinite(total) && total > 0.0))
            throw std::invalid_argument(
                std::string(who) + ": distribution total " +
                formatDouble(total) + " is not finite and positive");
        if (cdf.size() > (std::size_t{1} << 32))
            throw std::invalid_argument(std::string(who) +
                                        ": more than 2^32 outcomes");
        thresholds_.resize(cdf.size());
        for (std::size_t i = 0; i < cdf.size(); ++i)
            thresholds_[i] = i > 0 && cdf[i] == cdf[i - 1]
                                 ? thresholds_[i - 1]
                                 : leastPassingDraw(cdf[i], total);

        const int n = static_cast<int>(std::bit_width(cdf.size() - 1));
        const int bits = std::min(n + 2, 16);
        shift_ = 53 - bits;
        guide_.resize(std::size_t{1} << bits);
        // The bucket edges' indices, found in one forward sweep: the
        // edges rise with j and the thresholds with i.
        std::size_t i = 0;
        for (std::size_t j = 0; j < guide_.size(); ++j) {
            const std::uint64_t edge = static_cast<std::uint64_t>(j)
                                       << shift_;
            while (thresholds_[i] <= edge)
                ++i;
            guide_[j] = static_cast<std::uint32_t>(i);
        }
    }

    /** The first index whose entry is not less than u(k). */
    std::size_t find(std::uint64_t k) const
    {
        // The first step is an add, not a branch: whether a shot takes
        // it depends on where its draw falls in its bucket, so as a
        // branch it was mispredicted for up to a quarter of the shots.
        // Scans of two steps or more are rare.
        std::size_t i = guide_[k >> shift_];
        i += static_cast<std::size_t>(thresholds_[i] <= k);
        while (thresholds_[i] <= k)
            ++i;
        return i;
    }

    /** log2 of the bucket count: bucket j holds k >> (53 − b) == j. */
    int bucketBits() const { return 53 - shift_; }

    /** K_i: the least draw k with cdf[i] < u(k), or 2^53 for none. */
    std::uint64_t threshold(std::size_t i) const { return thresholds_[i]; }

  private:
    /**
     * The least draw k with c < u(k), or 2^53 when no draw passes: the
     * predicate is false, then true, as k rises.
     */
    static std::uint64_t leastPassingDraw(double c, double total)
    {
        // Draws are below 2^53; kLimit stands for "past every draw" and
        // passes by definition.
        constexpr std::int64_t kLimit = std::int64_t{1} << 53;
        const auto passes = [c, total](std::int64_t k) {
            return k >= kLimit ||
                   c < static_cast<double>(k) * 0x1.0p-53 * total;
        };
        const double guess = c / total * 0x1.0p53;
        const std::int64_t start =
            !(guess > 0.0)     ? 0
            : guess < 0x1.0p53 ? static_cast<std::int64_t>(guess)
                               : kLimit;
        // Bracket the boundary, doubling the step: !passes(lo) (lo = −1
        // stands for "before every draw") and passes(hi).
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        std::int64_t step = 1;
        if (passes(start)) {
            hi = start;
            lo = hi - step;
            while (lo >= 0 && passes(lo)) {
                hi = lo;
                step *= 2;
                lo = hi - step;
            }
            lo = std::max<std::int64_t>(lo, -1);
        }
        else {
            lo = start;
            hi = lo + step;
            while (hi < kLimit && !passes(hi)) {
                lo = hi;
                step *= 2;
                hi = lo + step;
            }
            hi = std::min(hi, kLimit);
        }
        while (hi - lo > 1) {
            const std::int64_t mid = lo + (hi - lo) / 2;
            (passes(mid) ? hi : lo) = mid;
        }
        return static_cast<std::uint64_t>(hi);
    }

    std::vector<std::uint64_t> thresholds_;
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
