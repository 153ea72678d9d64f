/**
 * @file
 * Tests for the prepare/finish split of an energy estimate and for the
 * job executor's reuse of the previous executed job's prepared points.
 *
 * The oracle is always a fresh preparation: finish(prepare(θ)) against
 * estimate(θ), and an executor's job against the same job run by a new
 * executor fast-forwarded to the same position, which has no kept
 * points and so prepares every evaluation. The
 * run-level cases count prepares through a mirror of QismetVqe::run
 * that keeps the executor in reach; a digest check against
 * QismetVqe::run proves the mirror exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/controller.hpp"
#include "core/qismet_vqe.hpp"
#include "core/threshold_calibrator.hpp"
#include "fault/fault_injector.hpp"
#include "vqe/job.hpp"
#include "vqe/run_digest.hpp"
#include "vqe/vqe_driver.hpp"

namespace qismet {
namespace {

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::setGlobalThreads(saved_); }

  private:
    std::size_t saved_;
};

EnergyEstimator
makeEstimator(const Application &app, EstimatorMode mode)
{
    EstimatorConfig cfg;
    cfg.mode = mode;
    cfg.shots = 1024;
    return EnergyEstimator(app.hamiltonian, app.ansatzCircuit,
                           app.machine.staticModel(), cfg);
}

std::vector<double>
pointNear(const Application &app, double offset)
{
    std::vector<double> theta(
        static_cast<std::size_t>(app.ansatzCircuit.numParams()));
    for (std::size_t i = 0; i < theta.size(); ++i)
        theta[i] = offset + 0.37 * static_cast<double>(i % 7);
    return theta;
}

JobRequest
jobOf(std::vector<std::vector<double>> evaluations)
{
    JobRequest request;
    request.evaluations = std::move(evaluations);
    return request;
}

TEST(PreparedPointReuse, FinishOfPrepareEqualsEstimateInEveryMode)
{
    GlobalThreadsGuard guard;
    ParallelExecutor::setGlobalThreads(4);
    const Application app = application(1);
    const std::vector<double> theta = pointNear(app, 0.2);
    for (const EstimatorMode mode :
         {EstimatorMode::Ideal, EstimatorMode::Analytic,
          EstimatorMode::Sampling}) {
        const EnergyEstimator est = makeEstimator(app, mode);
        const PreparedPoint point = est.prepare(theta);
        for (const double shot_fraction : {1.0, 0.37}) {
            for (const double tau : {0.0, 0.45}) {
                Rng a(99);
                Rng b(99);
                const double direct =
                    est.estimate(theta, tau, a, shot_fraction);
                // One prepared point serves every (τ, stream) pair.
                const double reused =
                    est.finish(point, tau, b, shot_fraction);
                EXPECT_EQ(bits(direct), bits(reused))
                    << "mode " << static_cast<int>(mode) << " tau "
                    << tau << " shot fraction " << shot_fraction;
                // Both consumed the same draws.
                EXPECT_EQ(bits(a.uniform()), bits(b.uniform()));
            }
        }
    }
}

TEST(PreparedPointReuse, PrepareHoldsOnlyTheModesHalf)
{
    const Application app = application(1);
    const std::vector<double> theta = pointNear(app, -0.4);

    const EnergyEstimator ideal = makeEstimator(app, EstimatorMode::Ideal);
    const PreparedPoint p_ideal = ideal.prepare(theta);
    EXPECT_EQ(bits(p_ideal.idealEnergy), bits(ideal.idealEnergy(theta)));
    EXPECT_TRUE(p_ideal.termExpectations.empty());
    EXPECT_TRUE(p_ideal.groupProbabilities.empty());

    const EnergyEstimator analytic =
        makeEstimator(app, EstimatorMode::Analytic);
    const PreparedPoint p_analytic = analytic.prepare(theta);
    EXPECT_EQ(p_analytic.termExpectations.size(),
              analytic.hamiltonian().terms().size());
    EXPECT_TRUE(p_analytic.groupProbabilities.empty());
    EXPECT_GT(p_analytic.sensitivity, 0.0);

    const EnergyEstimator sampling =
        makeEstimator(app, EstimatorMode::Sampling);
    const PreparedPoint p_sampling = sampling.prepare(theta);
    EXPECT_TRUE(p_sampling.termExpectations.empty());
    ASSERT_EQ(p_sampling.groupProbabilities.size(), sampling.numGroups());
    for (const auto &probs : p_sampling.groupProbabilities) {
        double total = 0.0;
        for (double p : probs)
            total += p;
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
    EXPECT_EQ(bits(p_sampling.sensitivity), bits(p_analytic.sensitivity));

    // A point of another mode is refused, as is a bad shot fraction.
    Rng rng(1);
    EXPECT_THROW(analytic.finish(p_sampling, 0.1, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampling.finish(p_analytic, 0.1, rng),
                 std::invalid_argument);
    EXPECT_THROW(analytic.finish(p_analytic, 0.1, rng, 0.0),
                 std::invalid_argument);
}

/** The same job on a new executor that prepares every evaluation. */
JobResult
freshlyPrepared(const EnergyEstimator &est, const TransientTrace &trace,
                std::uint64_t seed, std::size_t job_index,
                const JobRequest &request)
{
    JobExecutor fresh(est, trace, seed);
    fresh.restoreProgress(job_index, 0);
    JobResult result = fresh.execute(request);
    EXPECT_EQ(fresh.pointsPrepared(), request.evaluations.size());
    return result;
}

TEST(PreparedPointReuse, ExecutorReusesOnlyThePreviousExecutedJob)
{
    GlobalThreadsGuard guard;
    const Application app = application(1);
    const TransientTrace trace({0.1, 0.6, 0.2, 0.0, 0.4, 0.3});
    const std::vector<double> a = pointNear(app, 0.1);
    const std::vector<double> b = pointNear(app, 0.2);
    const std::vector<double> c = pointNear(app, 0.3);
    // The QISMET job shapes: a first evaluation, a new point with its
    // reference rerun, a retry of that job, the next point, and a point
    // last seen two jobs back.
    const std::vector<JobRequest> jobs = {
        jobOf({a}), jobOf({b, a}), jobOf({b, a}), jobOf({c, b}),
        jobOf({a})};
    const std::size_t prepared_after[] = {1, 2, 2, 3, 4};

    for (const EstimatorMode mode :
         {EstimatorMode::Analytic, EstimatorMode::Sampling}) {
        const EnergyEstimator est = makeEstimator(app, mode);
        for (const std::size_t threads : {1u, 4u}) {
            ParallelExecutor::setGlobalThreads(threads);
            JobExecutor exec(est, trace, 5);
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                const JobResult got = exec.execute(jobs[j]);
                EXPECT_EQ(exec.pointsPrepared(), prepared_after[j])
                    << "job " << j;
                const JobResult want =
                    freshlyPrepared(est, trace, 5, j, jobs[j]);
                ASSERT_EQ(got.energies.size(), want.energies.size());
                for (std::size_t i = 0; i < got.energies.size(); ++i)
                    EXPECT_EQ(bits(got.energies[i]),
                              bits(want.energies[i]))
                        << "job " << j << " evaluation " << i;
            }
            // Reuse is simulator work only: every circuit is charged.
            EXPECT_EQ(exec.circuitsExecuted(), 8 * est.numGroups());
        }
    }
}

TEST(PreparedPointReuse, ReuseNeedsBitEqualTheta)
{
    const Application app = application(1);
    const EnergyEstimator est = makeEstimator(app, EstimatorMode::Analytic);
    std::vector<double> plus_zero = pointNear(app, 0.0);
    plus_zero[0] = 0.0;
    std::vector<double> minus_zero = plus_zero;
    minus_zero[0] = -0.0;
    ASSERT_TRUE(plus_zero == minus_zero); // equal as numbers...

    JobExecutor exec(est, TransientTrace{}, 3);
    exec.execute(jobOf({plus_zero}));
    exec.execute(jobOf({minus_zero})); // ...but not as bits
    EXPECT_EQ(exec.pointsPrepared(), 2u);
    exec.execute(jobOf({minus_zero}));
    EXPECT_EQ(exec.pointsPrepared(), 2u);
}

TEST(PreparedPointReuse, FailedJobsLeaveTheKeptPointsUntouched)
{
    const Application app = application(1);
    const EnergyEstimator est = makeEstimator(app, EstimatorMode::Analytic);
    FaultPolicy policy;
    policy.timeoutRate = 0.3;
    policy.errorRate = 0.2;
    const FaultInjector injector(policy, 41);

    // A failing job between two clean ones.
    std::size_t failing = 1;
    while (injector.eventFor(failing - 1, 0.0).kind != FaultKind::None ||
           injector.eventFor(failing + 1, 0.0).kind != FaultKind::None ||
           (injector.eventFor(failing, 0.0).kind != FaultKind::JobTimeout &&
            injector.eventFor(failing, 0.0).kind != FaultKind::JobError))
        ++failing;

    const std::vector<double> a = pointNear(app, 0.5);
    const std::vector<double> b = pointNear(app, 0.6);
    JobExecutor exec(est, TransientTrace{}, 9);
    exec.setFaultInjector(&injector);
    exec.restoreProgress(failing - 1, 0);
    exec.execute(jobOf({a}));
    EXPECT_EQ(exec.pointsPrepared(), 1u);
    EXPECT_TRUE(exec.execute(jobOf({b, a})).failed());
    EXPECT_EQ(exec.pointsPrepared(), 1u);
    // The job before the failure is still the previous executed job.
    EXPECT_FALSE(exec.execute(jobOf({b, a})).failed());
    EXPECT_EQ(exec.pointsPrepared(), 2u);
}

/** A run and the number of points its executor prepared. */
struct CountedRun
{
    VqeRunResult run;
    std::size_t pointsPrepared = 0;
};

/**
 * QismetVqe::run (src/core/qismet_vqe.cpp) for the Baseline and QISMET
 * schemes in Analytic mode, in memory, keeping the executor in reach.
 */
CountedRun
countedRun(const Application &app, const QismetVqeConfig &config)
{
    const QismetVqe runner = app.makeRunner();
    const EnergyEstimator estimator(app.hamiltonian, app.ansatzCircuit,
                                    app.machine.staticModel(),
                                    config.estimator);
    const TransientTrace trace =
        app.machine.traceGenerator(config.traceVersion)
            .generate(config.totalJobs + 8);
    JobExecutor executor(estimator, trace, config.seed * 0x5851F42Dull + 1,
                         config.intraJobJitter,
                         config.intraJobRelativeJitter);
    std::optional<FaultInjector> injector;
    if (config.faults.enabled()) {
        injector.emplace(config.faults,
                         config.seed * 0xD1342543DE82EF95ull + 0xFA17ull);
        executor.setFaultInjector(&*injector);
    }

    const int num_params = app.ansatzCircuit.numParams();
    SpsaGains gains = SpsaGains::forHorizon(
        config.totalJobs,
        config.spsaInitialStep / std::sqrt(static_cast<double>(num_params)),
        config.spsaPerturbation);
    gains.a *= std::min(4.0,
                        1.0 / std::max(0.05, estimator.staticSurvival()));
    Spsa optimizer(gains);

    std::unique_ptr<TuningPolicy> policy;
    if (config.scheme == Scheme::Qismet) {
        double shot_var = 0.0;
        for (const auto &t : app.hamiltonian.terms())
            if (!t.pauli.isIdentity())
                shot_var += t.coefficient * t.coefficient /
                            static_cast<double>(config.estimator.shots);
        const double jitter_energy =
            config.intraJobJitter * runner.energyScale();
        QismetControllerConfig cc;
        cc.relativeThreshold = runner.calibratedThreshold(
            SkipTargets::kDefault, config.traceVersion);
        cc.noiseFloor =
            std::sqrt(2.0 * shot_var + 2.0 * jitter_energy * jitter_energy);
        cc.mixedEnergy = app.hamiltonian.identityCoefficient();
        cc.retryBudget = config.retryBudget;
        cc.correctedFeed = config.qismetCorrectedFeed;
        cc.adaptiveSkipTarget = SkipTargets::kDefault;
        policy = std::make_unique<GradientFaithfulController>(cc);
    } else {
        policy = std::make_unique<AlwaysAcceptPolicy>();
    }

    VqeDriverConfig dcfg;
    dcfg.totalJobs = config.totalJobs;
    dcfg.seed = config.seed;
    dcfg.retry = config.faultRetry;
    dcfg.retry.maxRetries = config.retryBudget;
    VqeDriver driver(estimator, executor, optimizer, *policy, dcfg);

    Rng init_rng(config.seed ^ 0xA5A5A5A5ull);
    std::vector<double> theta0(static_cast<std::size_t>(num_params));
    for (auto &t : theta0)
        t = init_rng.uniform(-M_PI, M_PI);

    CountedRun out;
    out.run = driver.run(theta0);
    out.pointsPrepared = executor.pointsPrepared();
    // The mirror is exact, or the counts below describe another run.
    EXPECT_EQ(trajectoryDigest(out.run),
              trajectoryDigest(runner.run(config).run));
    return out;
}

/** A Table-1 app's config in analytic-table1 at benchmark seed 3. */
QismetVqeConfig
analyticTable1Config(const Application &app, int index, Scheme scheme)
{
    constexpr std::uint64_t kTable1RunSeed = 0xE2E0001;
    QismetVqeConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = deriveStreamSeed(3, kTable1RunSeed,
                                static_cast<std::uint64_t>(index));
    cfg.traceVersion = app.spec.traceVersion;
    cfg.totalJobs = 2000;
    cfg.estimator.mode = EstimatorMode::Analytic;
    return cfg;
}

std::size_t
executedJobs(const VqeRunResult &run)
{
    return static_cast<std::size_t>(std::count_if(
        run.history.begin(), run.history.end(), [](const VqeJobRecord &r) {
            return r.status != JobStatus::TimedOut &&
                   r.status != JobStatus::Failed;
        }));
}

TEST(PreparedPointReuse, QismetRunPreparesOncePerNewEvaluation)
{
    // A QISMET job reruns the point its previous job accepted, and a
    // retry repeats the previous job: only each evaluation's first job
    // prepares, once.
    GlobalThreadsGuard guard;
    for (const std::size_t threads : {1u, 4u}) {
        ParallelExecutor::setGlobalThreads(threads);
        for (const int index : {1, 5}) {
            const Application app = application(index);
            const CountedRun r = countedRun(
                app, analyticTable1Config(app, index, Scheme::Qismet));
            EXPECT_GT(r.run.retriesUsed, 0u);
            EXPECT_EQ(r.pointsPrepared,
                      r.run.jobsUsed - r.run.retriesUsed);
            if (index == 1) {
                EXPECT_EQ(r.pointsPrepared, 1765u);
            }
            // Circuits are the machine's cost: every job but the first
            // carries its reference rerun, reused or not.
            EXPECT_EQ(r.run.circuitsUsed,
                      (2 * r.run.jobsUsed - 1) *
                          makeEstimator(app, EstimatorMode::Analytic)
                              .numGroups());
        }
    }
}

TEST(PreparedPointReuse, FaultedQismetRunStaysWithinTheCarryForwardBound)
{
    // A carried-forward evaluation prepared nothing if all its jobs
    // failed, but one whose first job ran and was rejected did prepare
    // its point. (This config reads 1155 in [1150, 1157].)
    const Application app = application(1);
    QismetVqeConfig cfg = analyticTable1Config(app, 1, Scheme::Qismet);
    cfg.faults.timeoutRate = 0.2;
    cfg.faults.errorRate = 0.1;
    cfg.faults.partialRate = 0.03;
    cfg.faults.referenceLossRate = 0.02;
    cfg.faults.burstCoupling = 1.0;
    const CountedRun r = countedRun(app, cfg);
    const VqeRunResult &run = r.run;
    EXPECT_GT(run.faultRetries, 0u);
    EXPECT_GT(run.evalsCarriedForward, 0u);
    EXPECT_GE(r.pointsPrepared, run.jobsUsed - run.retriesUsed -
                                    run.evalsCarriedForward);
    EXPECT_LE(r.pointsPrepared, run.jobsUsed - run.retriesUsed);
}

TEST(PreparedPointReuse, BaselineRunPreparesOncePerExecutedJob)
{
    // Without a reference rerun no executed job repeats the point of
    // the one before it; a failed job in between runs and keeps
    // nothing.
    const Application app = application(1);
    QismetVqeConfig cfg = analyticTable1Config(app, 1, Scheme::Baseline);
    const CountedRun clean = countedRun(app, cfg);
    EXPECT_EQ(clean.pointsPrepared, clean.run.jobsUsed);

    cfg.faults.timeoutRate = 0.1;
    cfg.faults.errorRate = 0.05;
    cfg.faults.partialRate = 0.05;
    const CountedRun faulted = countedRun(app, cfg);
    EXPECT_LT(executedJobs(faulted.run), faulted.run.jobsUsed);
    EXPECT_EQ(faulted.pointsPrepared, executedJobs(faulted.run));
}

} // namespace
} // namespace qismet
