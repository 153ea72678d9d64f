/** @file Tests for finite-shot sampling with readout errors. */

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/shot_sampler.hpp"

namespace qismet {
namespace {

TEST(ReadoutError, Validation)
{
    ReadoutError ok{0.01, 0.02};
    EXPECT_NO_THROW(ok.check());
    ReadoutError bad{1.5, 0.0};
    EXPECT_THROW(bad.check(), std::invalid_argument);
}

struct BadReadoutCase
{
    const char *name;
    ReadoutError readout;
    const char *field; // expected in the message
};

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

const BadReadoutCase kBadReadout[] = {
    {"p10 NaN", {kNaN, 0.02}, "p10"},
    {"p01 NaN", {0.01, kNaN}, "p01"},
    {"p10 negative", {-0.01, 0.02}, "p10"},
    {"p01 negative", {0.01, -1e-9}, "p01"},
    {"p10 above one", {1.5, 0.02}, "p10"},
    {"p01 above one", {0.01, 1.5}, "p01"},
    {"p10 inf", {kInf, 0.02}, "p10"},
    {"p01 -inf", {0.01, -kInf}, "p01"},
};

/** Expect `fn` to throw std::invalid_argument naming every needle. */
template <typename Fn>
void
expectInvalidNaming(Fn &&fn, std::initializer_list<std::string> needles)
{
    try {
        fn();
        ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument &e) {
        for (const std::string &needle : needles)
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << "message '" << e.what() << "' lacks '" << needle << "'";
    }
}

TEST(ReadoutError, RejectsNaNAndOutOfRangeNamingTheField)
{
    for (const BadReadoutCase &c : kBadReadout) {
        SCOPED_TRACE(c.name);
        expectInvalidNaming([&] { c.readout.check(); }, {c.field});
    }
    // The edges of [0, 1] are valid.
    EXPECT_NO_THROW((ReadoutError{0.0, 1.0}.check()));
    EXPECT_NO_THROW((ReadoutError{1.0, 0.0}.check()));
}

TEST(ShotSampler, ConstructorRejectsBadReadoutNamingTheQubit)
{
    for (const BadReadoutCase &c : kBadReadout) {
        SCOPED_TRACE(c.name);
        expectInvalidNaming(
            [&] {
                ShotSampler({ReadoutError{0.01, 0.02}, c.readout});
            },
            {"readout[1]", c.field});
    }
}

TEST(ShotSampler, RejectsNaNAndInfiniteProbabilities)
{
    const ShotSampler sampler;
    const struct
    {
        const char *name;
        std::vector<double> probs;
        const char *entry;
    } cases[] = {
        {"NaN", {0.5, kNaN}, "probs[1]"},
        {"inf", {kInf, 0.5}, "probs[0]"},
        {"-inf", {0.5, -kInf}, "probs[1]"},
        {"negative", {-0.5, 1.5}, "probs[0]"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        Rng rng(1);
        expectInvalidNaming([&] { sampler.sample(c.probs, 1, 10, rng); },
                            {c.entry});
    }
    // A round-off negative is clamped, not refused.
    Rng rng(1);
    const Counts counts = sampler.sample({-1e-13, 1.0}, 1, 10, rng);
    EXPECT_EQ(counts.at(1), 10u);
}

TEST(ShotSampler, RefusesTotalsThatAreNotFiniteAndPositive)
{
    const ShotSampler sampler({ReadoutError{0.01, 0.02},
                               ReadoutError{0.01, 0.02}});
    // Finite weights whose sum passes DBL_MAX, and all zeros.
    for (const std::vector<double> &probs :
         {std::vector<double>{1e308, 1e308, 1e308, 0.0},
          std::vector<double>{0.0, 0.0, 0.0, 0.0}}) {
        Rng rng(1);
        expectInvalidNaming([&] { sampler.sample(probs, 2, 100, rng); },
                            {"ShotSampler", "total"});
    }
    // The Statevector overload: an infinite, a NaN and a zero state.
    for (const std::vector<Complex> &amps :
         {std::vector<Complex>{1.0, kInf, 0.0, 0.0},
          std::vector<Complex>{1.0, kNaN, 0.0, 0.0},
          std::vector<Complex>(4, 0.0)}) {
        const Statevector state(amps);
        Rng rng(1);
        expectInvalidNaming([&] { sampler.sample(state, 100, rng); },
                            {"ShotSampler", "total"});
    }
}

TEST(ShotSampler, RefusesWidthsOutsideTheShift)
{
    // 1 << num_qubits is undefined outside [0, 63]: refused before it.
    const ShotSampler sampler;
    const std::vector<double> probs = {1.0};
    for (int n : {-1, 64, 100}) {
        SCOPED_TRACE(n);
        Rng rng(1);
        expectInvalidNaming([&] { sampler.sample(probs, n, 10, rng); },
                            {"num_qubits = " + std::to_string(n)});
    }
    Rng rng(1);
    EXPECT_EQ(sampler.sample(probs, 0, 10, rng).at(0), 10u);
}

TEST(ShotSampler, RefusalsPrintTheRefusedValueExactly)
{
    // Refusals print a value in its shortest round-trip form: six fixed
    // decimals printed -1e-9 as -0.000000.
    expectInvalidNaming([] { ReadoutError{-1e-9, 0.02}.check(); },
                        {"p10 = -1e-09 is outside"});
    expectInvalidNaming(
        [] { ShotSampler({ReadoutError{1e-9, -1e-9}}); },
        {"readout[0].p01 = -1e-09 is outside"});
    const ShotSampler sampler;
    Rng rng(1);
    expectInvalidNaming(
        [&] { sampler.sample(std::vector<double>{-1e-9, 1.0}, 1, 10, rng); },
        {"probs[0] = -1e-09 is negative"});
}

TEST(ShotSampler, ErrorFreeSamplingMatchesDistribution)
{
    ShotSampler sampler;
    std::vector<double> probs = {0.25, 0.75};
    Rng rng(3);
    const Counts counts = sampler.sample(probs, 1, 40000, rng);
    EXPECT_NEAR(static_cast<double>(counts.at(0)) / 40000.0, 0.25, 0.01);
    EXPECT_NEAR(static_cast<double>(counts.at(1)) / 40000.0, 0.75, 0.01);
}

TEST(ShotSampler, ReadoutFlipsGroundState)
{
    // Deterministic |0> prepared, p10 = 0.1 readout flips.
    ShotSampler sampler({ReadoutError{0.1, 0.0}});
    std::vector<double> probs = {1.0, 0.0};
    Rng rng(5);
    const Counts counts = sampler.sample(probs, 1, 50000, rng);
    EXPECT_NEAR(static_cast<double>(counts.at(1)) / 50000.0, 0.1, 0.01);
}

TEST(ShotSampler, AsymmetricReadout)
{
    // |1> prepared with p01 = 0.2: expect ~20% zeros.
    ShotSampler sampler({ReadoutError{0.0, 0.2}});
    std::vector<double> probs = {0.0, 1.0};
    Rng rng(7);
    const Counts counts = sampler.sample(probs, 1, 50000, rng);
    EXPECT_NEAR(static_cast<double>(counts.at(0)) / 50000.0, 0.2, 0.01);
}

TEST(ShotSampler, MultiQubitIndependentFlips)
{
    ShotSampler sampler({ReadoutError{0.1, 0.0}, ReadoutError{0.1, 0.0}});
    std::vector<double> probs = {1.0, 0.0, 0.0, 0.0};
    Rng rng(11);
    const Counts counts = sampler.sample(probs, 2, 50000, rng);
    const double p_both =
        counts.count(3) ? static_cast<double>(counts.at(3)) / 50000.0 : 0.0;
    EXPECT_NEAR(p_both, 0.01, 0.005);
}

TEST(ShotSampler, Validation)
{
    ShotSampler sampler;
    Rng rng(1);
    EXPECT_THROW(sampler.sample({0.5, 0.5, 0.0}, 1, 10, rng),
                 std::invalid_argument); // size != 2^n
    EXPECT_THROW(sampler.sample({-0.5, 1.5}, 1, 10, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample({0.0, 0.0}, 1, 10, rng),
                 std::invalid_argument);
}

TEST(ShotSampler, TooFewReadoutEntriesThrows)
{
    ShotSampler sampler({ReadoutError{0.1, 0.1}});
    std::vector<double> probs(4, 0.25);
    Rng rng(1);
    EXPECT_THROW(sampler.sample(probs, 2, 10, rng), std::invalid_argument);
}

TEST(Counts, TotalShots)
{
    Counts c = {{0, 10}, {3, 5}};
    EXPECT_EQ(totalShots(c), 15u);
    EXPECT_EQ(totalShots({}), 0u);
}

TEST(Counts, ToProbabilities)
{
    Counts c = {{0, 30}, {2, 10}};
    const auto p = countsToProbabilities(c, 2);
    EXPECT_DOUBLE_EQ(p[0], 0.75);
    EXPECT_DOUBLE_EQ(p[2], 0.25);
    EXPECT_DOUBLE_EQ(p[1], 0.0);
}

TEST(Counts, ToProbabilitiesRejectsWideOutcome)
{
    Counts c = {{4, 1}};
    EXPECT_THROW(countsToProbabilities(c, 2), std::out_of_range);
}

TEST(Counts, ExpectationZMask)
{
    // 60% |00>, 40% |01>: Z on qubit 0 = 0.6 - 0.4 = 0.2.
    Counts c = {{0, 60}, {1, 40}};
    EXPECT_NEAR(countsExpectationZMask(c, 0b01), 0.2, 1e-12);
    // Z on qubit 1 always +1.
    EXPECT_NEAR(countsExpectationZMask(c, 0b10), 1.0, 1e-12);
    // ZZ parity: |01> has odd parity.
    EXPECT_NEAR(countsExpectationZMask(c, 0b11), 0.2, 1e-12);
}

TEST(Counts, ExpectationOfEmptyCountsIsZero)
{
    EXPECT_DOUBLE_EQ(countsExpectationZMask({}, 1), 0.0);
}

} // namespace
} // namespace qismet
