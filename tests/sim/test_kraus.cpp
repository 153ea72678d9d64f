/** @file Tests for Kraus channels: CPTP validity, limits, composition. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/kraus.hpp"

namespace qismet {
namespace {

class Cptp1qTest : public ::testing::TestWithParam<double>
{
};

TEST_P(Cptp1qTest, AllFactoriesTracePreserving)
{
    const double p = GetParam();
    EXPECT_TRUE(KrausChannel::depolarizing1q(p).isTracePreserving());
    EXPECT_TRUE(KrausChannel::amplitudeDamping(p).isTracePreserving());
    EXPECT_TRUE(KrausChannel::phaseDamping(p).isTracePreserving());
    EXPECT_TRUE(KrausChannel::bitFlip(p).isTracePreserving());
    EXPECT_TRUE(KrausChannel::depolarizing2q(p).isTracePreserving());
}

INSTANTIATE_TEST_SUITE_P(Probabilities, Cptp1qTest,
                         ::testing::Values(0.0, 1e-4, 0.01, 0.25, 0.5,
                                           0.9, 1.0));

TEST(Kraus, ProbabilityRangeChecked)
{
    EXPECT_THROW(KrausChannel::depolarizing1q(-0.1), std::invalid_argument);
    EXPECT_THROW(KrausChannel::depolarizing1q(1.1), std::invalid_argument);
    EXPECT_THROW(KrausChannel::amplitudeDamping(2.0), std::invalid_argument);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(KrausChannel::depolarizing1q(nan), std::invalid_argument);
    EXPECT_THROW(KrausChannel::amplitudeDamping(nan), std::invalid_argument);
}

TEST(Kraus, IdentityChannel)
{
    const auto id = KrausChannel::identity1q();
    EXPECT_EQ(id.numQubits(), 1);
    EXPECT_TRUE(id.isTracePreserving());
    EXPECT_EQ(id.operators().size(), 1u);
}

TEST(Kraus, NumQubits)
{
    EXPECT_EQ(KrausChannel::depolarizing1q(0.1).numQubits(), 1);
    EXPECT_EQ(KrausChannel::depolarizing2q(0.1).numQubits(), 2);
}

TEST(Kraus, CompositionStaysCptp)
{
    const auto composed = KrausChannel::amplitudeDamping(0.3).then(
        KrausChannel::phaseDamping(0.4));
    EXPECT_TRUE(composed.isTracePreserving(1e-9));
    EXPECT_EQ(composed.operators().size(), 4u);
}

TEST(Kraus, CompositionShapeMismatchThrows)
{
    EXPECT_THROW(KrausChannel::depolarizing1q(0.1).then(
                     KrausChannel::depolarizing2q(0.1)),
                 std::invalid_argument);
}

TEST(Kraus, EmptyOperatorListRejected)
{
    EXPECT_THROW(KrausChannel(std::vector<Matrix>{}), std::invalid_argument);
}

TEST(Kraus, InconsistentShapesRejected)
{
    EXPECT_THROW(KrausChannel({Matrix::identity(2), Matrix::identity(4)}),
                 std::invalid_argument);
}

TEST(ThermalRelaxation, ZeroDurationIsIdentityLike)
{
    const auto ch = KrausChannel::thermalRelaxation(100e3, 80e3, 0.0);
    EXPECT_TRUE(ch.isTracePreserving());
    // Sum of K ρ K† on |1><1| must keep the excited population.
    // With zero duration gamma = 0 and lambda = 0, so one operator must
    // be the identity (others numerically zero).
    double max_offdiag_damp = 0.0;
    for (const auto &k : ch.operators())
        max_offdiag_damp = std::max(max_offdiag_damp,
                                    std::abs(k(1, 1).real()));
    EXPECT_NEAR(max_offdiag_damp, 1.0, 1e-12);
}

class ThermalRelaxationTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
};

TEST_P(ThermalRelaxationTest, CptpAcrossParameterSpace)
{
    const auto [t1, t2, dt] = GetParam();
    EXPECT_TRUE(
        KrausChannel::thermalRelaxation(t1, t2, dt).isTracePreserving(1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Params, ThermalRelaxationTest,
    ::testing::Combine(::testing::Values(50e3, 100e3),
                       ::testing::Values(30e3, 80e3),
                       ::testing::Values(0.0, 35.0, 300.0, 5000.0)));

TEST(ThermalRelaxation, InvalidParamsThrow)
{
    EXPECT_THROW(KrausChannel::thermalRelaxation(-1.0, 1.0, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(KrausChannel::thermalRelaxation(1.0, 3.0, 1.0),
                 std::invalid_argument); // T2 > 2 T1 unphysical
    EXPECT_THROW(KrausChannel::thermalRelaxation(1.0, 1.0, -1.0),
                 std::invalid_argument);
}

} // namespace
} // namespace qismet
