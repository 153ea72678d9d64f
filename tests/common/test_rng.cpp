/** @file Unit and statistical tests for the RNG substrate. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/rng.hpp"
#include "common/statistics.hpp"

namespace qismet {
namespace {

TEST(Xoshiro256, DeterministicForSameSeed)
{
    Xoshiro256 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++same;
    EXPECT_LE(same, 1);
}

TEST(Xoshiro256, ZeroSeedIsWellMixed)
{
    Xoshiro256 g(0);
    // SplitMix64 expansion means even seed 0 gives nonzero output.
    EXPECT_NE(g(), 0u);
    EXPECT_NE(g(), g());
}

TEST(Xoshiro256, JumpProducesDisjointStream)
{
    Xoshiro256 a(7);
    Xoshiro256 b(7);
    b.jump();
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(a());
    int collisions = 0;
    for (int i = 0; i < 1000; ++i)
        if (seen.count(b()))
            ++collisions;
    EXPECT_EQ(collisions, 0);
}

// Known answers: the engine, uniform() and bernoulli() are header-inline
// and every golden trace rests on them, so their outputs are pinned by
// value, not only by self-agreement. The values were captured from the
// out-of-line implementation that preceded the inline one.
TEST(Xoshiro256, KnownAnswerSeedZero)
{
    static constexpr std::uint64_t kWant[] = {
        0x53175D61490B23DFull, 0x61DA6F3DC380D507ull, 0x5C0FDF91EC9A7BFCull,
        0x02EEBF8C3BBE5E1Aull, 0x7ECA04EBAF4A5EEAull, 0x0543C37757F08D9Aull,
        0xDB7490C75AB5026Eull, 0xD87343E6464BC959ull};
    Xoshiro256 g(0);
    for (std::uint64_t want : kWant)
        EXPECT_EQ(g(), want);
}

TEST(Xoshiro256, KnownAnswerSeed42)
{
    static constexpr std::uint64_t kWant[] = {
        0xD0764D4F4476689Full, 0x519E4174576F3791ull, 0xFBE07CFB0C24ED8Cull,
        0xB37D9F600CD835B8ull, 0xCB231C3874846A73ull, 0x968D9F004E50DE7Dull,
        0x201718FF221A3556ull, 0x9AE94E070ED8CB46ull};
    Xoshiro256 g(42);
    for (std::uint64_t want : kWant)
        EXPECT_EQ(g(), want);
}

TEST(Rng, KnownAnswerUniformBernoulliNormal)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniform(), 0x1.c583400555d2p-5);
    EXPECT_TRUE(rng.bernoulli(0.3));
    EXPECT_EQ(rng.normal(), 0x1.ac8da7097b412p+0);

    // Four draws in: the uniform, the Bernoulli and one accepted polar
    // pair, whose second deviate is buffered.
    const RngState state = rng.saveState();
    const std::array<std::uint64_t, 4> want = {
        0xB0E4D618B094D784ull, 0x89F484AAE2B04800ull, 0xDFF249141126F860ull,
        0x17730E72EA86DD05ull};
    EXPECT_EQ(state.engine, want);
    EXPECT_TRUE(state.hasSpareNormal);
    EXPECT_EQ(state.spareNormal, -0x1.1ebed0f15bbdep-1);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanAndVariance)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 7.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 7.0);
    }
}

TEST(Rng, UniformIntUnbiasedCoverage)
{
    Rng rng(17);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(10)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
}

TEST(Rng, UniformIntRejectsZero)
{
    Rng rng(1);
    EXPECT_THROW(rng.uniformInt(0), std::invalid_argument);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.01);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalShiftScale)
{
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.normal(3.0, 0.5));
    EXPECT_NEAR(stats.mean(), 3.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(29);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.exponential(2.0));
    EXPECT_NEAR(stats.mean(), 0.5, 0.02);
    EXPECT_GT(stats.min(), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveRate)
{
    Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
    EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

class PoissonMeanTest : public ::testing::TestWithParam<double>
{
};

TEST_P(PoissonMeanTest, MeanMatches)
{
    const double mean = GetParam();
    Rng rng(31);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(static_cast<double>(rng.poisson(mean)));
    EXPECT_NEAR(stats.mean(), mean, 0.05 * std::max(1.0, mean));
    // Poisson: variance == mean.
    EXPECT_NEAR(stats.variance(), mean, 0.10 * std::max(1.0, mean));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanTest,
                         ::testing::Values(0.05, 0.5, 2.0, 10.0, 80.0));

TEST(Rng, PoissonZeroMean)
{
    Rng rng(3);
    EXPECT_EQ(rng.poisson(0.0), 0u);
    EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, PoissonWithSuppliedExpMatchesPoisson)
{
    // A caller drawing at one mean supplies exp(-mean) once; the draws,
    // the values and the engine state after them are poisson(mean)'s.
    for (const double mean : {0.0, 0.02, 0.5, 5.0, 29.9, 30.0, 80.0}) {
        Rng a(77);
        Rng b(77);
        const double e = std::exp(-mean);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.poisson(mean), b.poisson(mean, e)) << mean;
        const RngState sa = a.saveState();
        const RngState sb = b.saveState();
        EXPECT_EQ(sa.engine, sb.engine) << mean;
        EXPECT_EQ(sa.hasSpareNormal, sb.hasSpareNormal) << mean;
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(37);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(41);
    std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(weights)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, DiscreteRejectsBadWeights)
{
    Rng rng(1);
    EXPECT_THROW(rng.discrete({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(rng.discrete({1.0, -0.5}), std::invalid_argument);
}

TEST(Rng, SignIsBalanced)
{
    Rng rng(43);
    int sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.sign();
    EXPECT_NEAR(sum / static_cast<double>(n), 0.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStreams)
{
    Rng parent(47);
    Rng child1 = parent.split();
    Rng child2 = parent.split();
    // Children must differ from each other.
    std::vector<double> a, b;
    for (int i = 0; i < 1000; ++i) {
        a.push_back(child1.uniform());
        b.push_back(child2.uniform());
    }
    EXPECT_LT(std::abs(pearson(a, b)), 0.1);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitAtIsPureAndDeterministic)
{
    // splitAt must not advance the parent, and the same index from the
    // same parent state must yield the same child stream.
    const Rng parent(53);
    Rng childA = parent.splitAt(6);
    Rng childB = parent.splitAt(6);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(childA.uniform(), childB.uniform());

    Rng advanced(53);
    Rng untouched(53);
    (void)advanced.splitAt(3);
    (void)advanced.splitAt(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(advanced.uniform(), untouched.uniform());
}

TEST(Rng, SplitAtDistinctIndicesGiveDistinctStreams)
{
    const Rng parent(59);
    std::set<std::uint64_t> first_draws;
    for (std::uint64_t i = 0; i < 64; ++i) {
        Rng child = parent.splitAt(i);
        first_draws.insert(child.engine()());
    }
    EXPECT_EQ(first_draws.size(), 64u);
}

/** Pearson correlation of a against b delayed by `lag` samples. */
double
laggedPearson(const std::vector<double> &a, const std::vector<double> &b,
              std::size_t lag)
{
    const std::size_t m = a.size() - lag;
    std::vector<double> head(a.begin(), a.begin() + static_cast<long>(m));
    std::vector<double> tail(b.begin() + static_cast<long>(lag), b.end());
    return pearson(head, tail);
}

/**
 * Pairwise lagged-correlation bound shared by the split() and splitAt()
 * sub-stream tests. For independent uniform streams of length M the
 * sample correlation is ~Normal(0, 1/sqrt(M - lag)); 4.75 sigma leaves
 * comfortable headroom over all stream pairs and lags at a fixed seed.
 */
void
expectPairwiseUncorrelated(const std::vector<std::vector<double>> &streams)
{
    const std::size_t draws = streams.front().size();
    for (std::size_t i = 0; i < streams.size(); ++i) {
        for (std::size_t j = i + 1; j < streams.size(); ++j) {
            for (std::size_t lag = 0; lag <= 3; ++lag) {
                const double bound =
                    4.75 / std::sqrt(static_cast<double>(draws - lag));
                EXPECT_LT(std::abs(laggedPearson(streams[i], streams[j],
                                                 lag)),
                          bound)
                    << "streams " << i << "," << j << " lag " << lag;
                EXPECT_LT(std::abs(laggedPearson(streams[j], streams[i],
                                                 lag)),
                          bound)
                    << "streams " << j << "," << i << " lag " << lag;
            }
        }
    }
}

TEST(Rng, SplitSubStreamsPairwiseUncorrelated)
{
    const std::size_t num_streams = 24;
    const std::size_t draws = 4096;
    Rng parent(61);
    std::vector<std::vector<double>> streams;
    for (std::size_t s = 0; s < num_streams; ++s) {
        Rng child = parent.split();
        std::vector<double> xs(draws);
        for (auto &x : xs)
            x = child.uniform();
        streams.push_back(std::move(xs));
    }
    expectPairwiseUncorrelated(streams);
}

TEST(Rng, SplitAtSubStreamsPairwiseUncorrelated)
{
    // The counter-based children the parallel engine hands to sibling
    // tasks: consecutive indices from one parent state.
    const std::size_t num_streams = 24;
    const std::size_t draws = 4096;
    const Rng parent(67);
    std::vector<std::vector<double>> streams;
    for (std::size_t s = 0; s < num_streams; ++s) {
        Rng child = parent.splitAt(s);
        std::vector<double> xs(draws);
        for (auto &x : xs)
            x = child.uniform();
        streams.push_back(std::move(xs));
    }
    expectPairwiseUncorrelated(streams);
}

} // namespace
} // namespace qismet
