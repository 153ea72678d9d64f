/** @file Tests for skip-rate threshold calibration. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "core/threshold_calibrator.hpp"

namespace qismet {
namespace {

TEST(ThresholdCalibrator, Validation)
{
    EXPECT_THROW(ThresholdCalibrator(0.0), std::invalid_argument);
    EXPECT_THROW(ThresholdCalibrator(1.0), std::invalid_argument);
    EXPECT_THROW(ThresholdCalibrator(-0.1), std::invalid_argument);
}

TEST(ThresholdCalibrator, FromSamplesQuantile)
{
    // 100 samples 0.01..1.00: the 10% skip target picks ~the 90th
    // percentile.
    std::vector<double> mags;
    for (int i = 1; i <= 100; ++i)
        mags.push_back(0.01 * i);
    const double thr = ThresholdCalibrator(0.10).fromSamples(mags);
    EXPECT_NEAR(thr, 0.90, 0.02);

    const double thr25 = ThresholdCalibrator(0.25).fromSamples(mags);
    EXPECT_LT(thr25, thr);
}

TEST(ThresholdCalibrator, FromSamplesUsesMagnitudes)
{
    const double thr =
        ThresholdCalibrator(0.5).fromSamples({-1.0, -1.0, 1.0, 1.0});
    EXPECT_NEAR(thr, 1.0, 1e-12);
}

TEST(ThresholdCalibrator, FromSamplesRejectsEmpty)
{
    EXPECT_THROW(ThresholdCalibrator(0.1).fromSamples({}),
                 std::invalid_argument);
}

TEST(ThresholdCalibrator, FromTraceScalesByEnergy)
{
    TransientTrace trace({0.1, 0.2, 0.3, 0.4, 0.5});
    const double thr1 = ThresholdCalibrator(0.2).fromTrace(trace, 1.0);
    const double thr2 = ThresholdCalibrator(0.2).fromTrace(trace, 3.0);
    EXPECT_NEAR(thr2, 3.0 * thr1, 1e-12);
}

TEST(ThresholdCalibrator, FromTraceValidation)
{
    EXPECT_THROW(ThresholdCalibrator(0.1).fromTrace(TransientTrace{}, 1.0),
                 std::invalid_argument);
    TransientTrace t({0.1});
    EXPECT_THROW(ThresholdCalibrator(0.1).fromTrace(t, 0.0),
                 std::invalid_argument);
}

TEST(ThresholdCalibrator, FromTraceDifferencesAchievesTarget)
{
    // Synthetic trace with known difference distribution: the
    // calibrated threshold should be exceeded by ~the target fraction
    // of differences.
    Rng rng(5);
    std::vector<double> vals;
    double v = 0.0;
    for (int i = 0; i < 5000; ++i) {
        v = rng.bernoulli(0.1) ? rng.uniform(0.0, 1.0) : 0.0;
        vals.push_back(v);
    }
    TransientTrace trace(vals);
    const double target = 0.10;
    const double thr = ThresholdCalibrator(target)
                           .fromTraceDifferences(trace, 1.0, 0.0);

    int exceed = 0;
    for (std::size_t i = 0; i + 1 < vals.size(); ++i)
        if (std::abs(vals[i + 1] - vals[i]) > thr)
            ++exceed;
    EXPECT_NEAR(exceed / static_cast<double>(vals.size() - 1), target,
                0.02);
}

TEST(ThresholdCalibrator, NoiseRaisesDifferenceThreshold)
{
    TransientTrace trace(std::vector<double>(2000, 0.0));
    const double quiet = ThresholdCalibrator(0.1).fromTraceDifferences(
        trace, 1.0, 0.0);
    const double noisy = ThresholdCalibrator(0.1).fromTraceDifferences(
        trace, 1.0, 0.2);
    EXPECT_DOUBLE_EQ(quiet, 0.0);
    EXPECT_GT(noisy, 0.1);
}

TEST(ThresholdCalibrator, FromTraceDifferencesValidation)
{
    TransientTrace t({0.1});
    EXPECT_THROW(
        ThresholdCalibrator(0.1).fromTraceDifferences(t, 1.0, 0.0),
        std::invalid_argument);
    TransientTrace ok({0.1, 0.2});
    EXPECT_THROW(
        ThresholdCalibrator(0.1).fromTraceDifferences(ok, -1.0, 0.0),
        std::invalid_argument);
    EXPECT_THROW(
        ThresholdCalibrator(0.1).fromTraceDifferences(ok, 1.0, -0.1),
        std::invalid_argument);
}

TEST(ThresholdCalibrator, Table1ThresholdsArePinned)
{
    // QismetVqe::calibratedThreshold at the three skip targets for each
    // Table-1 app, pinned bit for bit: the zero-sigma calibration it
    // runs draws no noise, and skipping those draws moves no bit.
    const std::uint64_t pinned[6][3] = {
        {0x3feb29da4214d9ebull, 0x3f7bda33b8604a6full, 0x3f70db65f54a59f2ull},
        {0x3fef7c7e133061d5ull, 0x3fc49995eadf85c7ull, 0x3f734179b2757d46ull},
        {0x3fef7e5dbb37f54eull, 0x3fc2deafda9d2c21ull, 0x3f730d3f79e841a3ull},
        {0x3fedbf60f4fbdf3bull, 0x3faea0acb09393c4ull, 0x3f71b5242a9ff093ull},
        {0x3fefa4fc1bdec265ull, 0x3fc5f6d2e69b7024ull, 0x3f714d5817139e71ull},
        {0x3fefc482bbe86b1eull, 0x3fd2eaef7f51cdf4ull, 0x3f80e8e0d95ffb32ull},
    };
    const double targets[3] = {SkipTargets::kConservative,
                               SkipTargets::kDefault,
                               SkipTargets::kAggressive};
    for (int index = 1; index <= 6; ++index) {
        const Application app = application(index);
        const QismetVqe runner = app.makeRunner();
        for (int t = 0; t < 3; ++t)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(runner.calibratedThreshold(
                          targets[t], app.spec.traceVersion)),
                      pinned[index - 1][t])
                << "App" << index << " target " << targets[t];
    }
}

TEST(ThresholdCalibrator, RefusesNaNTargetsAndSigmas)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(ThresholdCalibrator{nan}, std::invalid_argument);
    TransientTrace trace({0.1, 0.3, 0.2});
    EXPECT_THROW(ThresholdCalibrator(0.1).fromTraceDifferences(trace, 1.0,
                                                               nan),
                 std::invalid_argument);
    EXPECT_THROW(ThresholdCalibrator(0.1).fromTraceDifferences(trace, nan,
                                                               0.0),
                 std::invalid_argument);
    EXPECT_THROW(ThresholdCalibrator(0.1).fromTrace(trace, nan),
                 std::invalid_argument);
}

TEST(SkipTargets, PaperValues)
{
    EXPECT_DOUBLE_EQ(SkipTargets::kConservative, 0.01);
    EXPECT_DOUBLE_EQ(SkipTargets::kDefault, 0.10);
    EXPECT_DOUBLE_EQ(SkipTargets::kAggressive, 0.25);
}

} // namespace
} // namespace qismet
