/**
 * @file
 * The determinism contract end to end (DESIGN.md §7): whole Baseline
 * and QISMET trajectories of Table-1 apps are bit-identical at 1, 2, 4
 * and 8 worker threads, in Analytic and Sampling mode, and a seed
 * ensemble fanned out over the pool equals its solo runs.
 *
 * Every fan-out level runs here: the circuits of one job (primary plus
 * reference rerun, each prepared or reused from the previous job), the
 * measurement groups of one Sampling-mode estimate, and the trials of
 * an ensemble.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "common/thread_pool.hpp"
#include "core/qismet_vqe.hpp"
#include "vqe/run_digest.hpp"

namespace qismet {
namespace {

class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::setGlobalThreads(saved_); }

  private:
    std::size_t saved_;
};

/** What one run must reproduce at every thread count. */
struct Outcome
{
    std::string digest;
    std::size_t jobs = 0;
    std::size_t retries = 0;
    std::size_t circuits = 0;
    double skipFraction = 0.0;

    bool operator==(const Outcome &) const = default;
};

Outcome
outcomeOf(const QismetVqeResult &result)
{
    return {trajectoryDigest(result.run), result.run.jobsUsed,
            result.run.retriesUsed, result.run.circuitsUsed,
            result.skipFraction};
}

/** Runs App1 and App5 under both schemes at 1/2/4/8 threads. */
void
expectThreadCountInvariant(QismetVqeConfig config)
{
    GlobalThreadsGuard guard;
    for (const int index : {1, 5}) {
        const QismetVqe runner = application(index).makeRunner();
        for (const Scheme scheme : {Scheme::Baseline, Scheme::Qismet}) {
            config.scheme = scheme;
            ParallelExecutor::setGlobalThreads(1);
            const Outcome serial = outcomeOf(runner.run(config));
            if (scheme == Scheme::Qismet) {
                // Retries are the jobs that reuse both prepared points.
                EXPECT_GT(serial.retries, 0u) << "App" << index;
            }
            for (const std::size_t threads : {2u, 4u, 8u}) {
                ParallelExecutor::setGlobalThreads(threads);
                EXPECT_EQ(outcomeOf(runner.run(config)), serial)
                    << "App" << index << " " << schemeName(scheme)
                    << " at " << threads << " threads";
            }
        }
    }
}

TEST(ParallelDeterminism, AnalyticTrajectoriesAtEveryThreadCount)
{
    QismetVqeConfig cfg;
    cfg.totalJobs = 400;
    cfg.seed = 17;
    cfg.estimator.mode = EstimatorMode::Analytic;
    expectThreadCountInvariant(cfg);
}

TEST(ParallelDeterminism, SamplingTrajectoriesAtEveryThreadCount)
{
    QismetVqeConfig cfg;
    cfg.totalJobs = 60;
    cfg.seed = 27;
    cfg.estimator.mode = EstimatorMode::Sampling;
    cfg.estimator.shots = 1024;
    cfg.estimator.mitigateMeasurement = true;
    expectThreadCountInvariant(cfg);
}

TEST(ParallelDeterminism, EnsembleEqualsSoloRuns)
{
    GlobalThreadsGuard guard;
    const QismetVqe runner = application(1).makeRunner();
    QismetVqeConfig cfg;
    cfg.scheme = Scheme::Qismet;
    cfg.totalJobs = 400;
    const std::vector<std::uint64_t> seeds = {7, 17, 27};

    ParallelExecutor::setGlobalThreads(1);
    std::vector<Outcome> solo;
    for (const std::uint64_t seed : seeds) {
        QismetVqeConfig one = cfg;
        one.seed = seed;
        solo.push_back(outcomeOf(runner.run(one)));
    }
    for (const std::size_t threads : {1u, 4u}) {
        ParallelExecutor::setGlobalThreads(threads);
        const std::vector<QismetVqeResult> ensemble =
            runner.runEnsemble(cfg, seeds);
        ASSERT_EQ(ensemble.size(), seeds.size());
        for (std::size_t i = 0; i < seeds.size(); ++i)
            EXPECT_EQ(outcomeOf(ensemble[i]), solo[i])
                << "seed " << seeds[i] << " at " << threads
                << " threads";
    }
}

} // namespace
} // namespace qismet
