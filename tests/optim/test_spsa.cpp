/** @file Tests for the SPSA optimizer family on synthetic objectives. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/serial.hpp"
#include "optim/spsa_variants.hpp"

namespace qismet {
namespace {

/** Drive an optimizer against a closed-form objective. */
std::vector<double>
optimize(StochasticOptimizer &opt,
         const std::function<double(const std::vector<double> &)> &f,
         std::vector<double> theta, int iterations, std::uint64_t seed)
{
    Rng rng(seed);
    for (int k = 0; k < iterations; ++k) {
        const auto points = opt.plan(theta, k, rng);
        std::vector<double> energies;
        energies.reserve(points.size());
        for (const auto &p : points)
            energies.push_back(f(p));
        theta = opt.propose(theta, k, energies);
    }
    return theta;
}

double
quadratic(const std::vector<double> &x)
{
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        s += (1.0 + static_cast<double>(i)) * x[i] * x[i];
    return s;
}

TEST(SpsaGains, SchedulesDecay)
{
    SpsaGains g;
    EXPECT_GT(g.stepSize(0), g.stepSize(100));
    EXPECT_GT(g.perturbation(0), g.perturbation(100));
    EXPECT_GT(g.stepSize(1000), 0.0);
}

TEST(SpsaGains, ForHorizonInitialStep)
{
    const auto g = SpsaGains::forHorizon(2000, 0.05);
    // First step size equals the requested initial step.
    EXPECT_NEAR(g.a / std::pow(1.0 + g.bigA, g.alpha), 0.05, 1e-12);
    EXPECT_NEAR(g.bigA, 200.0, 1e-12);
}

TEST(Spsa, RejectsBadGains)
{
    SpsaGains g;
    g.a = 0.0;
    EXPECT_THROW(Spsa{g}, std::invalid_argument);
}

TEST(Spsa, PlanReturnsSymmetricPair)
{
    Spsa opt;
    Rng rng(1);
    const std::vector<double> theta = {1.0, -2.0, 0.5};
    const auto pts = opt.plan(theta, 0, rng);
    ASSERT_EQ(pts.size(), 2u);
    for (std::size_t i = 0; i < theta.size(); ++i)
        EXPECT_NEAR(pts[0][i] + pts[1][i], 2.0 * theta[i], 1e-12);
}

TEST(Spsa, ProposeRequiresPlan)
{
    Spsa opt;
    EXPECT_THROW(opt.propose({1.0}, 0, {0.0, 0.0}), std::logic_error);
}

TEST(Spsa, ProposeChecksEnergyCount)
{
    Spsa opt;
    Rng rng(1);
    opt.plan({1.0}, 0, rng);
    EXPECT_THROW(opt.propose({1.0}, 0, {1.0}), std::invalid_argument);
}

TEST(Spsa, ConvergesOnQuadratic)
{
    Spsa opt(SpsaGains::forHorizon(600, 0.1));
    const auto theta = optimize(opt, quadratic, {2.0, -1.5, 1.0}, 600, 5);
    EXPECT_LT(quadratic(theta), 0.05);
}

TEST(Spsa, DescendsEvenWithNoise)
{
    Rng noise(3);
    auto noisy = [&](const std::vector<double> &x) {
        return quadratic(x) + noise.normal(0.0, 0.05);
    };
    Spsa opt(SpsaGains::forHorizon(800, 0.1));
    const auto theta = optimize(opt, noisy, {2.0, -1.5}, 800, 7);
    EXPECT_LT(quadratic(theta), 0.3);
}

TEST(ResamplingSpsa, PlanHasTwiceThePoints)
{
    ResamplingSpsa opt;
    Rng rng(1);
    const auto pts = opt.plan({1.0, 2.0}, 0, rng);
    EXPECT_EQ(pts.size(), 4u);
    EXPECT_DOUBLE_EQ(opt.evaluationCostFactor(), 2.0);
}

TEST(ResamplingSpsa, ConvergesOnQuadratic)
{
    ResamplingSpsa opt(SpsaGains::forHorizon(400, 0.1));
    const auto theta = optimize(opt, quadratic, {2.0, -1.5}, 400, 11);
    EXPECT_LT(quadratic(theta), 0.05);
}

TEST(ResamplingSpsa, Validation)
{
    EXPECT_THROW(ResamplingSpsa(SpsaGains{}, 0), std::invalid_argument);
}

TEST(SecondOrderSpsa, PlanHasFourPoints)
{
    SecondOrderSpsa opt;
    Rng rng(1);
    const auto pts = opt.plan({1.0, 2.0, 3.0}, 0, rng);
    EXPECT_EQ(pts.size(), 4u);
    EXPECT_DOUBLE_EQ(opt.evaluationCostFactor(), 2.0);
}

TEST(SecondOrderSpsa, ConvergesOnIllConditionedQuadratic)
{
    // Strong anisotropy is where Hessian preconditioning should help.
    auto aniso = [](const std::vector<double> &x) {
        return 25.0 * x[0] * x[0] + 0.5 * x[1] * x[1];
    };
    SecondOrderSpsa opt(SpsaGains::forHorizon(800, 0.05));
    const auto theta = optimize(opt, aniso, {1.0, 2.0}, 800, 13);
    EXPECT_LT(aniso(theta), 0.4);
}

TEST(SecondOrderSpsa, LoadStateRefusesAnOutOfRangeSampleCount)
{
    // hessianSamples is an int saved as i64, the second field from the
    // end of a state with no Hessian rows yet (the row count follows).
    SecondOrderSpsa opt;
    Encoder enc;
    opt.saveState(enc);
    const std::string saved = enc.take();
    const auto withSamples = [&](std::int64_t samples) {
        std::string bytes = saved;
        Encoder v;
        v.writeI64(samples);
        bytes.replace(bytes.size() - 16, 8, v.bytes());
        return bytes;
    };
    for (const auto &[samples, want] :
         {std::pair<std::int64_t, const char *>{
              (std::int64_t{1} << 32) + 2, "hessianSamples 4294967298"},
          {-1, "hessianSamples -1"}}) {
        SecondOrderSpsa loaded;
        const std::string bytes = withSamples(samples);
        Decoder dec(bytes);
        try {
            loaded.loadState(dec);
            ADD_FAILURE() << want << " was loaded";
        }
        catch (const SerialError &e) {
            EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
                << e.what();
        }
    }
    // The unedited state loads and saves back to the same bytes.
    SecondOrderSpsa loaded;
    const std::string bytes = withSamples(0);
    Decoder dec(bytes);
    loaded.loadState(dec);
    Encoder again;
    loaded.saveState(again);
    EXPECT_EQ(again.take(), saved);
}

TEST(SecondOrderSpsa, Validation)
{
    EXPECT_THROW(SecondOrderSpsa(SpsaGains{}, 0.0), std::invalid_argument);
}

TEST(Spsa, MeanGradientEstimateIsUnbiasedOnLinearFunction)
{
    // For f(x) = c . x the SPSA gradient estimate is unbiased: averaged
    // over Rademacher perturbations the proposed step approaches
    // -a_0 * c.
    const std::vector<double> c = {3.0, -2.0};
    auto linear = [&](const std::vector<double> &x) {
        return c[0] * x[0] + c[1] * x[1];
    };
    Spsa opt(SpsaGains::forHorizon(1, 0.1));
    Rng rng(17);
    const std::vector<double> theta = {0.0, 0.0};
    const double a0 = opt.gains().stepSize(0);

    std::vector<double> mean_step(2, 0.0);
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        const auto pts = opt.plan(theta, 0, rng);
        const auto next =
            opt.propose(theta, 0, {linear(pts[0]), linear(pts[1])});
        for (int i = 0; i < 2; ++i)
            mean_step[i] += next[i] / trials;
    }
    EXPECT_NEAR(mean_step[0], -a0 * c[0], 0.05 * a0 * std::abs(c[0]) + 1e-4);
    EXPECT_NEAR(mean_step[1], -a0 * c[1], 0.05 * a0 * std::abs(c[1]) + 1e-4);
}

} // namespace
} // namespace qismet
