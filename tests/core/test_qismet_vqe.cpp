/** @file Tests for the integrated experiment runner. */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "common/scratch_dir.hpp"
#include "core/qismet_vqe.hpp"

namespace qismet {
namespace {

TEST(SchemeName, MatchesPaperLegends)
{
    EXPECT_EQ(schemeName(Scheme::Baseline), "Baseline");
    EXPECT_EQ(schemeName(Scheme::Qismet), "QISMET");
    EXPECT_EQ(schemeName(Scheme::QismetConservative),
              "QISMET-conservative");
    EXPECT_EQ(schemeName(Scheme::SecondOrder), "2nd-order");
    EXPECT_EQ(schemeName(Scheme::OnlyTransients), "Only-transients");
}

TEST(QismetVqe, ConstructionValidation)
{
    const Application app = application(1);
    PauliSum wrong(4);
    wrong.add(1.0, "ZZZZ");
    EXPECT_THROW(QismetVqe(wrong, app.ansatzCircuit, app.machine, -1.0),
                 std::invalid_argument);
}

TEST(QismetVqe, NaNJitterThrowsInsteadOfRunning)
{
    // Used to return a NaN finalEstimate without an error.
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.scheme = Scheme::Qismet;
    cfg.totalJobs = 20;
    cfg.intraJobJitter = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(runner.run(cfg), std::invalid_argument);
    cfg.intraJobJitter = 0.01;
    cfg.intraJobRelativeJitter = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(runner.run(cfg), std::invalid_argument);
}

TEST(QismetVqe, NonFiniteInitialThetaThrowsNamingTheEntry)
{
    // Used to run all 60 jobs and return a NaN finalEstimate.
    const Application app = application(1);
    const QismetVqe runner = app.makeRunner();
    QismetVqeConfig cfg;
    cfg.scheme = Scheme::Qismet;
    cfg.totalJobs = 60;
    const struct
    {
        double value;
        const char *text;
    } cases[] = {{std::numeric_limits<double>::quiet_NaN(), "nan"},
                 {std::numeric_limits<double>::infinity(), "inf"},
                 {-std::numeric_limits<double>::infinity(), "-inf"}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        cfg.initialTheta.assign(
            static_cast<std::size_t>(app.ansatzCircuit.numParams()), 0.5);
        cfg.initialTheta[3] = c.value;
        try {
            runner.run(cfg);
            ADD_FAILURE() << "a non-finite initialTheta ran";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("initialTheta[3]"), std::string::npos)
                << what;
            EXPECT_NE(what.find(std::string("got ") + c.text),
                      std::string::npos)
                << what;
        }
    }
}

TEST(QismetVqe, EveryNumericConfigFieldRefusesBadValuesBeforeAnyJob)
{
    // One row per bad value of every numeric QismetVqeConfig field
    // (seed and crashAfterIters have no bad values; faultRetry's
    // maxRetries is replaced by retryBudget). Each run has a checkpoint
    // directory, which a run creates before its first job: a refused
    // config must leave none behind.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    using Set = std::function<void(QismetVqeConfig &)>;
    struct Row
    {
        const char *field; ///< the name the refusal must carry
        Set set;
    };
    std::vector<Row> rows = {
        {"totalJobs", [](QismetVqeConfig &c) { c.totalJobs = 0; }},
        {"traceVersion", [](QismetVqeConfig &c) { c.traceVersion = 0; }},
        {"traceVersion", [](QismetVqeConfig &c) { c.traceVersion = -1; }},
        {"estimator.shots",
         [](QismetVqeConfig &c) { c.estimator.shots = 0; }},
        {"retryBudget", [](QismetVqeConfig &c) { c.retryBudget = 0; }},
        {"retryBudget", [](QismetVqeConfig &c) { c.retryBudget = -1; }},
        {"initialTheta[0]",
         [nan](QismetVqeConfig &c) { c.initialTheta.assign(40, nan); }},
        {"snapshotEveryIters",
         [](QismetVqeConfig &c) { c.snapshotEveryIters = 0; }},
    };
    auto add = [&rows](const char *field, Set set) {
        rows.push_back({field, std::move(set)});
    };
    const struct
    {
        const char *field;
        double QismetVqeConfig::*member;
        std::vector<double> bad;
    } doubles[] = {
        {"transientScale", &QismetVqeConfig::transientScale, {nan, inf}},
        {"onlyTransientsSkipTarget",
         &QismetVqeConfig::onlyTransientsSkipTarget,
         {nan, 0.0, 1.0, -0.1, 1.5}},
        {"intraJobJitter", &QismetVqeConfig::intraJobJitter,
         {nan, -0.01, inf}},
        {"intraJobRelativeJitter", &QismetVqeConfig::intraJobRelativeJitter,
         {nan, -0.15, inf}},
        {"spsaInitialStep", &QismetVqeConfig::spsaInitialStep,
         {nan, 0.0, -0.25, inf}},
        {"spsaPerturbation", &QismetVqeConfig::spsaPerturbation,
         {nan, 0.0, -0.12, inf}},
        {"deadlineSimSeconds", &QismetVqeConfig::deadlineSimSeconds,
         {nan, -1.0}},
    };
    for (const auto &d : doubles)
        for (double v : d.bad)
            add(d.field, [m = d.member, v](QismetVqeConfig &c) { c.*m = v; });
    const struct
    {
        const char *field;
        double KalmanParams::*member;
        std::vector<double> bad;
    } kalman[] = {
        {"kalman.transition", &KalmanParams::transition, {nan, inf}},
        {"kalman.measurementVariance", &KalmanParams::measurementVariance,
         {nan, 0.0, -0.1, inf}},
        {"kalman.processVariance", &KalmanParams::processVariance,
         {nan, -1e-9, inf}},
        {"kalman.initialVariance", &KalmanParams::initialVariance,
         {nan, 0.0, -1.0}},
    };
    for (const auto &d : kalman)
        for (double v : d.bad)
            add(d.field, [m = d.member, v](QismetVqeConfig &c) {
                c.kalman.*m = v;
            });
    const struct
    {
        const char *field;
        double FaultPolicy::*member;
        std::vector<double> bad;
    } faults[] = {
        {"timeoutRate", &FaultPolicy::timeoutRate, {nan, -0.1, 1.5}},
        {"errorRate", &FaultPolicy::errorRate, {nan, -0.1, 1.5}},
        {"partialRate", &FaultPolicy::partialRate, {nan, -0.1}},
        {"referenceLossRate", &FaultPolicy::referenceLossRate, {nan, 2.0}},
        {"burstCoupling", &FaultPolicy::burstCoupling, {nan, -1.0}},
        {"burstScale", &FaultPolicy::burstScale, {nan, 0.0, -1.0}},
        {"minShotFraction", &FaultPolicy::minShotFraction, {nan, 0.0, 1.5}},
        {"maxFaultProbability", &FaultPolicy::maxFaultProbability,
         {nan, 0.0, 1.0}},
    };
    for (const auto &d : faults)
        for (double v : d.bad)
            add(d.field, [m = d.member, v](QismetVqeConfig &c) {
                c.faults.*m = v;
            });
    const struct
    {
        const char *field;
        double RetryPolicy::*member;
        std::vector<double> bad;
    } retry[] = {
        {"baseBackoffSeconds", &RetryPolicy::baseBackoffSeconds,
         {nan, -1.0}},
        {"maxBackoffSeconds", &RetryPolicy::maxBackoffSeconds, {nan, -1.0}},
        {"backoffMultiplier", &RetryPolicy::backoffMultiplier, {nan, 0.5}},
    };
    for (const auto &d : retry)
        for (double v : d.bad)
            add(d.field, [m = d.member, v](QismetVqeConfig &c) {
                c.faultRetry.*m = v;
            });

    const Application app = application(1);
    const QismetVqe runner = app.makeRunner();
    const std::filesystem::path dir =
        test::scratchDir("config_refusal", /*create=*/false);
    auto base = [&dir] {
        QismetVqeConfig cfg;
        cfg.scheme = Scheme::Kalman;
        cfg.totalJobs = 20;
        cfg.checkpointDir = dir.string();
        return cfg;
    };

    // The control: the unmodified config runs and journals its jobs.
    runner.run(base());
    ASSERT_TRUE(std::filesystem::exists(dir / "journal.qjnl"));
    std::filesystem::remove_all(dir);

    for (const Row &row : rows) {
        QismetVqeConfig cfg = base();
        row.set(cfg);
        try {
            runner.run(cfg);
            ADD_FAILURE() << row.field << ": a bad value ran";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(row.field), std::string::npos)
                << row.field << ": " << what;
        }
        EXPECT_FALSE(std::filesystem::exists(dir))
            << row.field << ": the refused run touched its checkpoint";
        std::filesystem::remove_all(dir);
    }
    EXPECT_GT(rows.size(), 60u);
}

TEST(QismetVqe, EnergyScalePositive)
{
    const Application app = application(2);
    const QismetVqe runner = app.makeRunner();
    EXPECT_GT(runner.energyScale(), 0.0);
    EXPECT_LT(runner.energyScale(), std::abs(app.exactGroundEnergy));
}

TEST(QismetVqe, CalibratedThresholdOrdering)
{
    const QismetVqe runner = application(2).makeRunner();
    const double conservative =
        runner.calibratedThreshold(SkipTargets::kConservative, 1);
    const double standard =
        runner.calibratedThreshold(SkipTargets::kDefault, 1);
    const double aggressive =
        runner.calibratedThreshold(SkipTargets::kAggressive, 1);
    EXPECT_GT(conservative, standard);
    EXPECT_GT(standard, aggressive);
    EXPECT_GT(aggressive, 0.0);
}

TEST(QismetVqe, DeterministicRuns)
{
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 120;
    cfg.seed = 5;
    cfg.scheme = Scheme::Qismet;
    const auto a = runner.run(cfg);
    const auto b = runner.run(cfg);
    EXPECT_DOUBLE_EQ(a.run.finalEstimate, b.run.finalEstimate);
    EXPECT_EQ(a.run.retriesUsed, b.run.retriesUsed);
}

TEST(QismetVqe, NoiseFreeHasNoTransients)
{
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 150;
    cfg.scheme = Scheme::NoiseFree;
    const auto res = runner.run(cfg);
    for (const auto &rec : res.run.history)
        EXPECT_DOUBLE_EQ(rec.transientIntensity, 0.0);
}

TEST(QismetVqe, QismetSkipsAreBudgeted)
{
    const QismetVqe runner = application(2).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 800;
    cfg.seed = 3;
    cfg.scheme = Scheme::Qismet;
    cfg.retryBudget = 2;
    const auto res = runner.run(cfg);
    // No evaluation may be retried more than the budget.
    for (const auto &rec : res.run.history)
        EXPECT_LE(rec.retryIndex, 2);
}

TEST(QismetVqe, SkipFractionNearTarget)
{
    const QismetVqe runner = application(2).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 1500;
    cfg.seed = 7;
    cfg.scheme = Scheme::Qismet;
    const auto res = runner.run(cfg);
    // "skip at most ~10% of the iterations": allow headroom for retry
    // amplification but demand the controller is in the right regime.
    EXPECT_GT(res.skipFraction, 0.005);
    EXPECT_LT(res.skipFraction, 0.20);
}

TEST(QismetVqe, TransientScaleZeroMatchesStaticOnly)
{
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 200;
    cfg.scheme = Scheme::Baseline;
    cfg.transientScale = 0.0;
    const auto res = runner.run(cfg);
    for (const auto &rec : res.run.history)
        EXPECT_DOUBLE_EQ(rec.transientIntensity, 0.0);
}

TEST(QismetVqe, OverheadAccountingReflectsReferenceCircuits)
{
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 200;
    cfg.seed = 11;

    cfg.scheme = Scheme::Baseline;
    const auto base = runner.run(cfg);
    cfg.scheme = Scheme::Qismet;
    const auto qismet = runner.run(cfg);

    // Section 8.3: QISMET executes the reference rerun per job, so its
    // circuit count approaches 2x the baseline's at equal job budget.
    EXPECT_GT(qismet.run.circuitsUsed,
              static_cast<std::size_t>(1.8 *
                                       static_cast<double>(
                                           base.run.circuitsUsed)));
}

TEST(QismetVqe, ResamplingCostsMoreCircuitsPerIteration)
{
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 200;
    cfg.scheme = Scheme::Resampling;
    const auto res = runner.run(cfg);
    // 4 evaluations per iteration instead of 2 at the same job budget:
    // half the optimizer iterations.
    EXPECT_NEAR(static_cast<double>(res.run.iterationEnergies.size()),
                200.0 / 4.0, 1.0);
}

} // namespace
} // namespace qismet
