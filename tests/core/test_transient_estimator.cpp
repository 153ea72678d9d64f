/** @file Tests for the Fig.-8 transient estimation equations. */

#include <gtest/gtest.h>

#include "core/transient_estimator.hpp"

namespace qismet {
namespace {

TEST(TransientEstimator, EquationsExact)
{
    // E_m(i) = -2.0, E_mR(i) = -1.4 (transient +0.6), E_m(i+1) = -1.1.
    const auto e = estimateTransient(-2.0, -1.4, -1.1);

    EXPECT_DOUBLE_EQ(e.transient, 0.6);            // T_m = E_mR - E_m
    EXPECT_DOUBLE_EQ(e.machineGradient, 0.9);      // G_m = E(i+1) - E(i)
    EXPECT_DOUBLE_EQ(e.predictedEnergy, -1.7);     // E_p = E(i+1) - T_m
    EXPECT_DOUBLE_EQ(e.predictedGradient, 0.3);    // G_p = E_p - E(i)
}

TEST(TransientEstimator, GpEqualsGmMinusTm)
{
    const auto e = estimateTransient(0.3, -0.2, 1.7);
    EXPECT_DOUBLE_EQ(e.predictedGradient,
                     e.machineGradient - e.transient);
}

TEST(TransientEstimator, GpIsWithinJobDifference)
{
    // The controller's key identity: G_p = E_m(i+1) - E_mR(i), a
    // within-job quantity.
    const auto e = estimateTransient(-5.0, -4.2, -3.9);
    EXPECT_NEAR(e.predictedGradient, -3.9 - (-4.2), 1e-12);
}

TEST(TransientEstimator, ZeroTransientPredictionIsMeasurement)
{
    const auto e = estimateTransient(-1.0, -1.0, -1.5);
    EXPECT_DOUBLE_EQ(e.transient, 0.0);
    EXPECT_DOUBLE_EQ(e.predictedEnergy, -1.5);
    EXPECT_DOUBLE_EQ(e.predictedGradient, e.machineGradient);
}

} // namespace
} // namespace qismet
