/** @file Tests for streaming and batch statistics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "common/statistics.hpp"

namespace qismet {
namespace {

TEST(RunningStats, EmptyState)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation)
{
    const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 7.75, -1.25};
    RunningStats s;
    for (double x : xs)
        s.add(x);

    EXPECT_EQ(s.count(), xs.size());
    EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.75);
}

TEST(RunningStats, SingleValueHasZeroVariance)
{
    RunningStats s;
    s.add(4.2);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.2);
}

TEST(RunningStats, MergeEqualsCombinedStream)
{
    Rng rng(7);
    RunningStats all, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(2.0, 3.0);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Quantile, EndpointsAndMedian)
{
    std::vector<double> xs = {3.0, 1.0, 2.0, 5.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Quantile, LinearInterpolation)
{
    std::vector<double> xs = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(Quantile, Errors)
{
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
    // NaN would reach the cast of p·(n-1) to an index (UB).
    EXPECT_THROW(quantile({1.0, 2.0},
                          std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    // A NaN in the sample has no place in the order the selection
    // relies on.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(quantile({1.0, nan, 2.0}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile({nan}, 0.0), std::invalid_argument);
}

TEST(Quantile, SelectionMatchesTheSortedOrderBitForBit)
{
    // The two order statistics come from selection, not a full sort;
    // the interpolated value must be the sorted sample's, bit for bit,
    // duplicates and every p included.
    Rng rng(0x9A17ull);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(60);
        std::vector<double> xs(n);
        for (double &x : xs)
            x = rng.bernoulli(0.3)
                    ? static_cast<double>(rng.uniformInt(4))
                    : rng.normal();
        std::vector<double> sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.999, 1.0,
                               rng.uniform(0.0, 1.0)}) {
            const double idx = p * static_cast<double>(n - 1);
            const std::size_t lo = static_cast<std::size_t>(idx);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = idx - static_cast<double>(lo);
            const double want =
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile(xs, p)),
                      std::bit_cast<std::uint64_t>(want))
                << "n " << n << " p " << p;
        }
    }
}

class QuantileMonotoneTest : public ::testing::TestWithParam<double>
{
};

TEST_P(QuantileMonotoneTest, MonotoneInP)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i)
        xs.push_back(rng.normal());
    const double p = GetParam();
    EXPECT_LE(quantile(xs, p), quantile(xs, std::min(1.0, p + 0.1)));
}

INSTANTIATE_TEST_SUITE_P(Ps, QuantileMonotoneTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.9));

TEST(MedianAbsDeviation, RobustToOutlier)
{
    std::vector<double> xs = {1.0, 1.1, 0.9, 1.05, 0.95, 100.0};
    EXPECT_LT(medianAbsDeviation(xs), 0.2);
}

TEST(MovingAverage, WindowOneIsIdentity)
{
    const std::vector<double> xs = {1.0, 4.0, -2.0};
    EXPECT_EQ(movingAverage(xs, 1), xs);
}

TEST(MovingAverage, SmoothsStep)
{
    std::vector<double> xs(10, 0.0);
    for (int i = 5; i < 10; ++i)
        xs[i] = 1.0;
    const auto ma = movingAverage(xs, 4);
    EXPECT_DOUBLE_EQ(ma[4], 0.0);
    EXPECT_DOUBLE_EQ(ma[5], 0.25);
    EXPECT_DOUBLE_EQ(ma[9], 1.0);
}

TEST(MovingAverage, RejectsZeroWindow)
{
    EXPECT_THROW(movingAverage({1.0}, 0), std::invalid_argument);
}

TEST(Pearson, PerfectCorrelation)
{
    std::vector<double> a = {1, 2, 3, 4};
    std::vector<double> b = {2, 4, 6, 8};
    EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
    std::vector<double> c = {-1, -2, -3, -4};
    EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero)
{
    EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Pearson, LengthMismatchThrows)
{
    EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), std::invalid_argument);
}

} // namespace
} // namespace qismet
