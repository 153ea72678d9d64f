/** @file Tests for the static noise model. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "noise/machine_model.hpp"
#include "noise/noise_model.hpp"

namespace qismet {
namespace {

StaticNoiseParams
typicalParams()
{
    return StaticNoiseParams{};
}

TEST(StaticNoiseModel, Validation)
{
    StaticNoiseParams p;
    p.p2q = 1.5;
    EXPECT_THROW(StaticNoiseModel{p}, std::invalid_argument);
    p = {};
    p.t1Us = -1.0;
    EXPECT_THROW(StaticNoiseModel{p}, std::invalid_argument);
    p = {};
    p.t2Us = 3.0 * p.t1Us; // unphysical T2 > 2 T1
    EXPECT_THROW(StaticNoiseModel{p}, std::invalid_argument);
}

TEST(StaticNoiseModel, RejectsNaNAndOutOfRangeNamingTheField)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const struct
    {
        const char *field;
        double StaticNoiseParams::*member;
        double bad;
    } cases[] = {
        {"p1q", &StaticNoiseParams::p1q, nan},
        {"p1q", &StaticNoiseParams::p1q, -1e-3},
        {"p2q", &StaticNoiseParams::p2q, nan},
        {"p2q", &StaticNoiseParams::p2q, 1.5},
        {"readoutP10", &StaticNoiseParams::readoutP10, nan},
        {"readoutP10", &StaticNoiseParams::readoutP10, -0.01},
        {"readoutP10", &StaticNoiseParams::readoutP10, 1.5},
        {"readoutP01", &StaticNoiseParams::readoutP01, nan},
        {"readoutP01", &StaticNoiseParams::readoutP01, -0.01},
        {"readoutP01", &StaticNoiseParams::readoutP01, 1.5},
        {"t1Us", &StaticNoiseParams::t1Us, nan},
        {"t1Us", &StaticNoiseParams::t1Us, 0.0},
        {"t2Us", &StaticNoiseParams::t2Us, nan},
        {"t2Us", &StaticNoiseParams::t2Us, -5.0},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(c.bad));
        StaticNoiseParams p;
        p.*c.member = c.bad;
        try {
            StaticNoiseModel model(p);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << e.what();
        }
    }
}

TEST(StaticNoiseModel, RefusalsPrintTheRefusedValueExactly)
{
    // Shortest round-trip form: six fixed decimals printed -1e-9 as
    // -0.000000 and 3e-9 as 0.000000.
    const struct
    {
        double StaticNoiseParams::*member;
        double bad;
        const char *want;
    } cases[] = {
        {&StaticNoiseParams::p1q, -1e-9, "p1q = -1e-09 is outside [0, 1]"},
        {&StaticNoiseParams::t1Us, -1e-9, "t1Us = -1e-09 must be > 0"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.want);
        StaticNoiseParams p;
        p.*c.member = c.bad;
        try {
            StaticNoiseModel model(p);
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(c.want), std::string::npos)
                << e.what();
        }
    }
    StaticNoiseParams p;
    p.t1Us = 1e-9;
    p.t2Us = 3e-9;
    try {
        StaticNoiseModel model(p);
        ADD_FAILURE() << "T2 > 2 T1 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("t2Us = 3e-09 exceeds"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StaticNoiseModel, MachineWithNaNReadoutFailsAtTheEdge)
{
    // A NaN readout error used to pass here and surface only as a NaN
    // mitigated energy.
    MachineModel machine = machineModel("guadalupe");
    machine.staticNoise.readoutP10 =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(machine.staticModel(), std::invalid_argument);
}

TEST(StaticNoiseModel, ReadoutEdgesAreValid)
{
    StaticNoiseParams p;
    p.readoutP10 = 0.0;
    p.readoutP01 = 1.0;
    EXPECT_NO_THROW(StaticNoiseModel{p});
}

TEST(StaticNoiseModel, ReadoutErrors)
{
    const StaticNoiseModel model(typicalParams());
    const auto ro = model.readoutErrors(4);
    ASSERT_EQ(ro.size(), 4u);
    for (const auto &r : ro) {
        EXPECT_DOUBLE_EQ(r.p10, typicalParams().readoutP10);
        EXPECT_DOUBLE_EQ(r.p01, typicalParams().readoutP01);
    }
}

TEST(StaticNoiseModel, SurvivalInUnitInterval)
{
    const StaticNoiseModel model(typicalParams());
    Circuit c(4);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    const double f = model.survivalFactor(c);
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 1.0);
}

TEST(StaticNoiseModel, SurvivalDecreasesWithDepth)
{
    const StaticNoiseModel model(typicalParams());
    Circuit shallow(3);
    shallow.cx(0, 1);
    Circuit deep(3);
    for (int i = 0; i < 10; ++i)
        deep.cx(0, 1).cx(1, 2);
    EXPECT_GT(model.survivalFactor(shallow), model.survivalFactor(deep));
}

TEST(StaticNoiseModel, T1ScaleReducesSurvival)
{
    const StaticNoiseModel model(typicalParams());
    Circuit c(3);
    for (int i = 0; i < 5; ++i)
        c.cx(0, 1).cx(1, 2);
    EXPECT_GT(model.survivalFactor(c, 1.0), model.survivalFactor(c, 0.2));
    EXPECT_THROW(model.survivalFactor(c, 0.0), std::invalid_argument);
}

TEST(StaticNoiseModel, RunNoisyPreservesTrace)
{
    const StaticNoiseModel model(typicalParams());
    Circuit c(2);
    c.h(0).cx(0, 1).rz(1, 0.3).cx(0, 1);
    DensityMatrix rho(2);
    model.runNoisy(rho, c);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
    EXPECT_LT(rho.purity(), 1.0);
}

TEST(StaticNoiseModel, NoisyFidelityBelowIdeal)
{
    const StaticNoiseModel model(typicalParams());
    Circuit c(2);
    c.h(0).cx(0, 1);

    Statevector ideal(2);
    ideal.run(c);

    DensityMatrix rho(2);
    model.runNoisy(rho, c);
    const double fid = rho.fidelity(ideal);
    EXPECT_LT(fid, 1.0);
    EXPECT_GT(fid, 0.9); // a 2-gate circuit should stay close
}

TEST(StaticNoiseModel, TransientT1DegradationLowersFidelity)
{
    // The Fig. 4 mechanism: a transient T1 dip lowers circuit fidelity.
    const StaticNoiseModel model(typicalParams());
    Circuit c(2);
    for (int i = 0; i < 6; ++i)
        c.h(0).cx(0, 1);

    Statevector ideal(2);
    ideal.run(c);

    DensityMatrix healthy(2), degraded(2);
    model.runNoisy(healthy, c, {}, 1.0);
    model.runNoisy(degraded, c, {}, 0.1);
    EXPECT_GT(healthy.fidelity(ideal), degraded.fidelity(ideal));
}

TEST(StaticNoiseModel, SurvivalApproximatesDensityFidelity)
{
    // The analytic fast path should track the exact CPTP fidelity
    // within a coarse factor for a mid-size circuit.
    const StaticNoiseModel model(typicalParams());
    Circuit c(3);
    for (int i = 0; i < 4; ++i)
        c.ry(0, 0.3).cx(0, 1).ry(1, -0.8).cx(1, 2);

    Statevector ideal(3);
    ideal.run(c);
    DensityMatrix rho(3);
    model.runNoisy(rho, c);

    const double exact = rho.fidelity(ideal);
    const double approx = model.survivalFactor(c);
    EXPECT_NEAR(approx, exact, 0.15);
}

} // namespace
} // namespace qismet
