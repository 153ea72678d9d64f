/**
 * @file
 * A warm in-memory Analytic job allocates nothing: JobExecutor reuses
 * its point slots and buffers, EnergyEstimator::prepare its thread's
 * state and the plan's sweep scratch, and VqeDriver one request, one
 * result and its energy list. The only allocations an iteration makes
 * are the vectors StochasticOptimizer::plan and propose return.
 *
 * Each Table-1 app runs 2000 jobs as QismetVqe::run builds a Baseline
 * or a QISMET run, with Spsa behind a decorator that reads the
 * allocation counter as each iteration's plan() begins; the second
 * half of the run must allocate exactly what Spsa::plan and propose
 * return. The count comes from replacing the global operator new below,
 * which is why this suite has a binary of its own and is left out of
 * the sanitizer builds: their runtimes bring allocators of their own.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new> // qismet-lint: allow(naked-new) the header, not an expression
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "core/controller.hpp"
#include "core/qismet_vqe.hpp"
#include "core/threshold_calibrator.hpp"
#include "optim/spsa.hpp"
#include "vqe/energy_estimator.hpp"
#include "vqe/job.hpp"
#include "vqe/vqe_driver.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qismet {
namespace {

constexpr std::size_t kJobs = 2000;

/** What Spsa::plan returns (the outer vector and its two points) and
    what Spsa::propose returns (one vector). */
constexpr std::size_t kPlanAllocations = 3;
constexpr std::size_t kProposeAllocations = 1;

/** Spsa, with the allocation count read as each plan() begins. */
class CountingSpsa final : public StochasticOptimizer
{
  public:
    explicit CountingSpsa(SpsaGains gains) : inner_(gains)
    {
        atPlan_.reserve(kJobs);
    }

    std::string name() const override { return inner_.name(); }
    std::vector<std::vector<double>> plan(const std::vector<double> &theta,
                                          int k, Rng &rng) override
    {
        atPlan_.push_back(g_allocations.load());
        return inner_.plan(theta, k, rng);
    }
    std::vector<double> propose(const std::vector<double> &theta, int k,
                                const std::vector<double> &energies) override
    {
        return inner_.propose(theta, k, energies);
    }

    /** The counter at the start of each iteration's plan(). */
    const std::vector<std::size_t> &atPlan() const { return atPlan_; }

  private:
    Spsa inner_;
    std::vector<std::size_t> atPlan_;
};

/**
 * Heap allocations per iteration over the second half of a 2000-job
 * Analytic run of `app`, built the way QismetVqe::run builds `scheme`.
 */
double
allocationsPerIteration(const Application &app, Scheme scheme)
{
    const QismetVqeConfig cfg; // the defaults QismetVqe::run reads
    EstimatorConfig est_cfg;
    est_cfg.mode = EstimatorMode::Analytic;
    const EnergyEstimator estimator(app.hamiltonian, app.ansatzCircuit,
                                    app.machine.staticModel(), est_cfg);
    JobExecutor executor(
        estimator,
        app.machine.traceGenerator(app.spec.traceVersion).generate(kJobs + 8),
        cfg.seed * 0x5851F42Dull + 1, cfg.intraJobJitter,
        cfg.intraJobRelativeJitter);

    SpsaGains gains = SpsaGains::forHorizon(
        kJobs,
        cfg.spsaInitialStep /
            std::sqrt(static_cast<double>(app.ansatzCircuit.numParams())),
        cfg.spsaPerturbation);
    gains.a *= std::min(4.0, 1.0 / std::max(0.05, estimator.staticSurvival()));
    CountingSpsa optimizer(gains);

    std::unique_ptr<TuningPolicy> policy;
    if (scheme == Scheme::Qismet) {
        QismetControllerConfig cc;
        cc.relativeThreshold = app.makeRunner().calibratedThreshold(
            SkipTargets::kDefault, app.spec.traceVersion);
        cc.noiseFloor = 0.01;
        cc.mixedEnergy = estimator.mixedEnergy();
        cc.retryBudget = cfg.retryBudget;
        policy = std::make_unique<GradientFaithfulController>(cc);
    } else {
        policy = std::make_unique<AlwaysAcceptPolicy>();
    }

    VqeDriverConfig dcfg;
    dcfg.totalJobs = kJobs;
    dcfg.seed = cfg.seed;
    dcfg.retry.maxRetries = cfg.retryBudget;
    VqeDriver driver(estimator, executor, optimizer, *policy, dcfg);

    Rng init_rng(cfg.seed ^ 0xA5A5A5A5ull);
    std::vector<double> theta0(
        static_cast<std::size_t>(app.ansatzCircuit.numParams()));
    for (auto &t : theta0)
        t = init_rng.uniform(-M_PI, M_PI);
    const VqeRunResult run = driver.run(theta0);
    EXPECT_EQ(run.jobsUsed, kJobs);

    // From the plan() of the middle iteration to that of the last one.
    const std::vector<std::size_t> &at = optimizer.atPlan();
    EXPECT_GT(at.size(), 100u);
    const std::size_t first = at.size() / 2;
    const std::size_t last = at.size() - 1;
    return static_cast<double>(at[last] - at[first]) /
           static_cast<double>(last - first);
}

TEST(WarmJobAllocations, OnlyTheOptimizerVectorsAllocate)
{
    const double expected =
        static_cast<double>(kPlanAllocations + kProposeAllocations);
    for (int index = 1; index <= 6; ++index) {
        const Application app = application(index);
        for (const Scheme scheme : {Scheme::Baseline, Scheme::Qismet})
            EXPECT_EQ(allocationsPerIteration(app, scheme), expected)
                << "App" << index << " " << schemeName(scheme);
    }
}

TEST(WarmJobAllocations, TheCounterSeesAnAllocation)
{
    // Guards the test above against a replacement the linker ignored.
    const std::size_t before = g_allocations.load();
    void *p = ::operator new(16);
    EXPECT_EQ(g_allocations.load() - before, 1u);
    ::operator delete(p);
}

} // namespace
} // namespace qismet
