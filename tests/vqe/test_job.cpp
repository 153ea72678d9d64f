/** @file Tests for the job executor and its transient invariant. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "ansatz/real_amplitudes.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "vqe/job.hpp"

namespace qismet {
namespace {

struct Fixture
{
    Fixture()
        : hamiltonian(tfimHamiltonian({.numQubits = 4})),
          ansatz(RealAmplitudes(4, 2).build()),
          estimator(hamiltonian, ansatz,
                    machineModel("guadalupe").staticModel(),
                    makeConfig())
    {
    }

    static EstimatorConfig makeConfig()
    {
        EstimatorConfig cfg;
        cfg.mode = EstimatorMode::Analytic;
        cfg.shots = 1 << 20; // ~noiseless shots to isolate transients
        return cfg;
    }

    std::vector<double> theta(double v) const
    {
        return std::vector<double>(
            static_cast<std::size_t>(ansatz.numParams()), v);
    }

    PauliSum hamiltonian;
    Circuit ansatz;
    EnergyEstimator estimator;
};

TEST(JobExecutor, Validation)
{
    Fixture f;
    EXPECT_THROW(JobExecutor(f.estimator, TransientTrace{}, 1, -0.1),
                 std::invalid_argument);
    JobExecutor exec(f.estimator, TransientTrace{}, 1);
    EXPECT_THROW(exec.execute(JobRequest{}), std::invalid_argument);
}

TEST(JobExecutor, ValidationRejectsNaNJitterNamingTheField)
{
    // NaN fails every ordered comparison; a NaN jitter used to run and
    // turn every energy into NaN.
    Fixture f;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const struct
    {
        const char *field;
        double absolute;
        double relative;
    } cases[] = {
        {"intra_job_jitter", nan, 0.15},
        {"intra_job_jitter", -0.01, 0.15},
        {"relative_jitter", 0.01, nan},
        {"relative_jitter", 0.01, -0.15},
    };
    for (const auto &c : cases) {
        try {
            JobExecutor exec(f.estimator, TransientTrace{}, 1, c.absolute,
                             c.relative);
            ADD_FAILURE() << c.field << " = " << c.absolute << ", "
                          << c.relative << " was accepted";
        }
        catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find(c.field),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(JobExecutor, ConsumesTraceSequentially)
{
    Fixture f;
    TransientTrace trace({0.1, 0.5, 0.0});
    JobExecutor exec(f.estimator, trace, 7);

    JobRequest req;
    req.evaluations.push_back(f.theta(0.3));

    EXPECT_DOUBLE_EQ(exec.peekNextIntensity(), 0.1);
    const auto r0 = exec.execute(req);
    EXPECT_DOUBLE_EQ(r0.transientIntensity, 0.1);
    EXPECT_EQ(r0.jobIndex, 0u);

    EXPECT_DOUBLE_EQ(exec.peekNextIntensity(), 0.5);
    const auto r1 = exec.execute(req);
    EXPECT_DOUBLE_EQ(r1.transientIntensity, 0.5);
    EXPECT_EQ(exec.jobsExecuted(), 2u);
}

TEST(JobExecutor, SharedTransientWithinJob)
{
    // The QISMET invariant: circuits in one job see (approximately) the
    // same transient. With zero jitter the reference rerun estimates
    // the transient on the primary exactly (up to shot noise, which the
    // huge shot count suppresses).
    Fixture f;
    TransientTrace trace({0.0, 0.6});
    JobExecutor exec(f.estimator, trace, 11, /*intra_job_jitter=*/0.0,
                     /*relative_jitter=*/0.0);

    const auto point = f.theta(0.3);

    JobRequest first;
    first.evaluations.push_back(point);
    const double e_clean = exec.execute(first).energies[0];

    JobRequest second;
    second.evaluations.push_back(point);
    second.evaluations.push_back(point); // rerun in the same job
    const auto res = exec.execute(second);
    // Both evaluations of the same point in one job agree closely.
    EXPECT_NEAR(res.energies[0], res.energies[1], 1e-2);
    // And both differ from the clean job (transient 0.6 hit them).
    EXPECT_GT(res.energies[0] - e_clean, 0.1);
}

TEST(JobExecutor, JitterBreaksExactEquality)
{
    Fixture f;
    TransientTrace trace({0.5});
    JobExecutor exec(f.estimator, trace, 13, 0.05, 0.5);
    JobRequest req;
    req.evaluations.push_back(f.theta(0.3));
    req.evaluations.push_back(f.theta(0.3));
    const auto res = exec.execute(req);
    EXPECT_NE(res.energies[0], res.energies[1]);
}

TEST(JobExecutor, CircuitAccounting)
{
    Fixture f;
    JobExecutor exec(f.estimator, TransientTrace{}, 1, 0.0, 0.0,
                     /*mitigation_circuits=*/2);
    JobRequest req;
    req.evaluations.push_back(f.theta(0.1));
    req.evaluations.push_back(f.theta(0.2));
    exec.execute(req);
    // 2 evaluations x numGroups circuits + 2 mitigation circuits.
    EXPECT_EQ(exec.circuitsExecuted(),
              2 * f.estimator.numGroups() + 2);
}

TEST(JobExecutor, PastTraceEndIsQuiet)
{
    Fixture f;
    TransientTrace trace({0.9});
    JobExecutor exec(f.estimator, trace, 17, 0.0, 0.0);
    JobRequest req;
    req.evaluations.push_back(f.theta(0.3));
    exec.execute(req); // consumes the only entry
    const auto res = exec.execute(req);
    EXPECT_DOUBLE_EQ(res.transientIntensity, 0.0);
}

} // namespace
} // namespace qismet
