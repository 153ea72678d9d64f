/** @file Tests for the VQE driver loop and base policies. */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "ansatz/real_amplitudes.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "vqe/vqe_driver.hpp"

namespace qismet {
namespace {

struct Fixture
{
    Fixture()
        : hamiltonian(tfimHamiltonian({.numQubits = 4})),
          ansatz_gen(4, 2), ansatz(ansatz_gen.build()),
          estimator(hamiltonian, ansatz,
                    machineModel("guadalupe").staticModel(), makeConfig())
    {
    }

    static EstimatorConfig makeConfig()
    {
        EstimatorConfig cfg;
        cfg.mode = EstimatorMode::Analytic;
        return cfg;
    }

    std::vector<double> initialTheta()
    {
        Rng rng(1);
        return ansatz_gen.randomInitialPoint(rng);
    }

    PauliSum hamiltonian;
    RealAmplitudes ansatz_gen;
    Circuit ansatz;
    EnergyEstimator estimator;
};

/** Test policy that retries the first N judgments. */
class RetryNTimesPolicy : public TuningPolicy
{
  public:
    explicit RetryNTimesPolicy(int n) : remaining_(n) {}
    std::string name() const override { return "RetryN"; }
    bool wantsReferenceRerun() const override { return true; }
    Decision judgeEvaluation(const EvalContext &) override
    {
        if (remaining_ > 0) {
            --remaining_;
            return Decision::Retry;
        }
        return Decision::Accept;
    }

  private:
    int remaining_;
};

TEST(VqeDriver, Validation)
{
    Fixture f;
    JobExecutor exec(f.estimator, TransientTrace{}, 1);
    Spsa opt;
    AlwaysAcceptPolicy policy;
    VqeDriverConfig cfg;
    cfg.totalJobs = 0;
    EXPECT_THROW(VqeDriver(f.estimator, exec, opt, policy, cfg),
                 std::invalid_argument);
}

TEST(VqeDriver, ValidationRejectsNaNNamingTheField)
{
    // A NaN deadline used to mean no deadline, and a NaN job duration a
    // NaN simulated clock.
    Fixture f;
    JobExecutor exec(f.estimator, TransientTrace{}, 1);
    Spsa opt;
    AlwaysAcceptPolicy policy;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const struct
    {
        const char *field;
        std::function<void(VqeDriverConfig &)> spoil;
    } cases[] = {
        {"jobDurationSeconds",
         [&](VqeDriverConfig &c) { c.jobDurationSeconds = nan; }},
        {"jobDurationSeconds",
         [](VqeDriverConfig &c) { c.jobDurationSeconds = -1.0; }},
        {"deadlineSimSeconds",
         [&](VqeDriverConfig &c) { c.deadlineSimSeconds = nan; }},
        {"deadlineSimSeconds",
         [](VqeDriverConfig &c) { c.deadlineSimSeconds = -1.0; }},
        {"baseBackoffSeconds",
         [&](VqeDriverConfig &c) { c.retry.baseBackoffSeconds = nan; }},
    };
    for (const auto &c : cases) {
        VqeDriverConfig cfg;
        c.spoil(cfg);
        try {
            VqeDriver driver(f.estimator, exec, opt, policy, cfg);
            ADD_FAILURE() << c.field << " was accepted";
        }
        catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find(c.field),
                      std::string::npos)
                << err.what();
        }
    }
    EXPECT_THROW(BlockingPolicy{nan}, std::invalid_argument);
}

TEST(VqeDriver, RespectsJobBudget)
{
    Fixture f;
    JobExecutor exec(f.estimator, TransientTrace{}, 3);
    Spsa opt(SpsaGains::forHorizon(100, 0.02));
    AlwaysAcceptPolicy policy;
    VqeDriverConfig cfg;
    cfg.totalJobs = 101; // odd: last iteration cannot finish its pair
    VqeDriver driver(f.estimator, exec, opt, policy, cfg);

    const auto result = driver.run(f.initialTheta());
    EXPECT_EQ(result.jobsUsed, 101u);
    EXPECT_EQ(result.history.size(), 101u);
    EXPECT_EQ(exec.jobsExecuted(), 101u);
    // One iteration energy per completed evaluation pair.
    EXPECT_EQ(result.iterationEnergies.size(), 50u);
}

TEST(VqeDriver, BaselineConvergesNoiseFree)
{
    Fixture f;
    EstimatorConfig ideal;
    ideal.mode = EstimatorMode::Ideal;
    EnergyEstimator est(f.hamiltonian, f.ansatz, std::nullopt, ideal);

    JobExecutor exec(est, TransientTrace{}, 5);
    Spsa opt(SpsaGains::forHorizon(1200, 0.03));
    AlwaysAcceptPolicy policy;
    VqeDriverConfig cfg;
    cfg.totalJobs = 1200;
    cfg.seed = 9;
    VqeDriver driver(est, exec, opt, policy, cfg);

    const auto result = driver.run(f.initialTheta());
    const double exact = tfimExactGroundEnergy({.numQubits = 4});
    // Reaches at least 85% of the exact ground energy.
    EXPECT_LT(result.finalIdealEnergy, 0.85 * exact);
    EXPECT_NEAR(result.finalIdealEnergy, exact, 0.8);
}

TEST(VqeDriver, RetriesConsumeBudgetAndAreRecorded)
{
    Fixture f;
    JobExecutor exec(f.estimator, TransientTrace{}, 7);
    Spsa opt(SpsaGains::forHorizon(40, 0.02));
    RetryNTimesPolicy policy(5);
    VqeDriverConfig cfg;
    cfg.totalJobs = 40;
    VqeDriver driver(f.estimator, exec, opt, policy, cfg);

    const auto result = driver.run(f.initialTheta());
    EXPECT_EQ(result.retriesUsed, 5u);
    int retries_seen = 0;
    for (const auto &rec : result.history)
        if (!rec.accepted)
            ++retries_seen;
    EXPECT_EQ(retries_seen, 5);
    // Retry records must show increasing retryIndex for the same eval.
    EXPECT_EQ(result.history[1].retryIndex, 0);
    EXPECT_EQ(result.history[2].retryIndex, 1);
}

TEST(VqeDriver, BlockingRejectsWorseningMoves)
{
    Fixture f;
    // A huge transient on a mid-run job makes iteration energies jump;
    // blocking should reject at least one move.
    std::vector<double> taus(60, 0.0);
    for (int i = 20; i < 26; ++i)
        taus[static_cast<std::size_t>(i)] = 1.0;
    JobExecutor exec(f.estimator, TransientTrace(taus), 11, 0.0, 0.0);
    Spsa opt(SpsaGains::forHorizon(60, 0.02));
    BlockingPolicy policy(0.05);
    VqeDriverConfig cfg;
    cfg.totalJobs = 60;
    VqeDriver driver(f.estimator, exec, opt, policy, cfg);

    const auto result = driver.run(f.initialTheta());
    EXPECT_GT(result.rejections, 0u);
}

TEST(VqeDriver, BlockingToleranceValidation)
{
    EXPECT_THROW(BlockingPolicy(-0.1), std::invalid_argument);
    BlockingPolicy p(0.1);
    EXPECT_TRUE(p.acceptMove(1.0, 1.05));
    EXPECT_FALSE(p.acceptMove(1.0, 1.2));
    EXPECT_TRUE(p.acceptMove(1.0, 0.5));
}

TEST(VqeDriver, HistorySeriesAccessors)
{
    Fixture f;
    JobExecutor exec(f.estimator, TransientTrace{}, 13);
    Spsa opt(SpsaGains::forHorizon(20, 0.02));
    AlwaysAcceptPolicy policy;
    VqeDriverConfig cfg;
    cfg.totalJobs = 20;
    VqeDriver driver(f.estimator, exec, opt, policy, cfg);

    const auto result = driver.run(f.initialTheta());
    EXPECT_EQ(result.perJobEnergySeries().size(), result.history.size());
    EXPECT_EQ(result.acceptedEnergySeries().size(), 20u);
    EXPECT_EQ(result.finalTheta.size(),
              static_cast<std::size_t>(f.ansatz.numParams()));
}

TEST(VqeDriver, DeterministicGivenSeed)
{
    Fixture f;
    auto run_once = [&](std::uint64_t seed) {
        JobExecutor exec(f.estimator, TransientTrace{}, 17);
        Spsa opt(SpsaGains::forHorizon(30, 0.02));
        AlwaysAcceptPolicy policy;
        VqeDriverConfig cfg;
        cfg.totalJobs = 30;
        cfg.seed = seed;
        VqeDriver driver(f.estimator, exec, opt, policy, cfg);
        return driver.run(f.initialTheta()).finalEstimate;
    };
    EXPECT_DOUBLE_EQ(run_once(5), run_once(5));
    EXPECT_NE(run_once(5), run_once(6));
}

} // namespace
} // namespace qismet
