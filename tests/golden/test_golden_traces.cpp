/**
 * @file
 * Golden-trace regression tests: seeded end-to-end QISMET trajectories
 * for H2-VQE, TFIM-VQE and a QAOA MaxCut instance, pinned by final
 * energy and a per-iteration CSV checksum. Every trace is produced at
 * 1 and 4 worker threads and must be byte-identical in both — this is
 * the repo's determinism contract exercised through the full stack
 * (estimator, executor, fault injector, controller, optimizer).
 *
 * When an intentional change shifts a trajectory, regenerate the
 * constants with
 *
 *     QISMET_UPDATE_GOLDEN=1 ./tests/test_golden
 *
 * and paste the printed block below. These tests carry the ctest label
 * `golden` (not tier1): they pin exact floating-point trajectories, so
 * they are a change-detector, not a correctness gate.
 *
 * Regeneration history: the constants were refreshed exactly once when
 * the compiled-circuit engine landed (DESIGN.md section 11) — fusion
 * reorders floating-point products, shifting the h2-vqe and
 * tfim-vqe-faults digests; qaoa-maxcut was bit-identical before and
 * after. tfim-vqe-sampling was generated with the per-shot
 * std::lower_bound sampler, before the shot loop was rewritten
 * (DESIGN.md section 17), and has never been regenerated.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/applications.hpp"
#include "core/qismet_vqe.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/h2_molecule.hpp"
#include "noise/machine_model.hpp"
#include "qaoa/maxcut.hpp"
#include "qaoa/qaoa_ansatz.hpp"
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

// The CSV rendering and FNV-1a digest live in vqe/run_digest.hpp
// (trajectoryDigest); the serve layer's solo-equivalence tests compare
// against the same function, so "golden" means one thing repo-wide.

struct Trace
{
    std::string digest;
    double finalEstimate = 0.0;
};

template <typename RunFn>
void
checkGolden(const char *name, RunFn make_run,
            const char *golden_digest, double golden_final)
{
    GlobalThreadsGuard guard;
    ParallelExecutor::setGlobalThreads(1);
    const Trace serial = make_run();
    ParallelExecutor::setGlobalThreads(4);
    const Trace parallel = make_run();

    EXPECT_EQ(serial.digest, parallel.digest)
        << name << ": trajectory differs between 1 and 4 threads";
    EXPECT_DOUBLE_EQ(serial.finalEstimate, parallel.finalEstimate);

    if (std::getenv("QISMET_UPDATE_GOLDEN") != nullptr) {
        std::printf("GOLDEN %s digest=%s final=%.17g\n", name,
                    serial.digest.c_str(), serial.finalEstimate);
        GTEST_SKIP() << "golden update mode: printed, not asserted";
    }
    EXPECT_EQ(serial.digest, golden_digest)
        << name << ": trajectory changed — if intentional, regenerate "
        << "with QISMET_UPDATE_GOLDEN=1";
    EXPECT_DOUBLE_EQ(serial.finalEstimate, golden_final);
}

TEST(GoldenTraces, H2Vqe)
{
    const H2Problem prob = h2Problem(0.735);
    const QismetVqe runner(prob.hamiltonian,
                           makeAnsatz("SU2", 4, 3)->build(),
                           machineModel("guadalupe"), prob.fciEnergy);
    checkGolden(
        "h2-vqe",
        [&] {
            QismetVqeConfig cfg;
            cfg.totalJobs = 200;
            cfg.seed = 11;
            cfg.scheme = Scheme::Qismet;
            const QismetVqeResult res = runner.run(cfg);
            return Trace{trajectoryDigest(res.run),
                         res.run.finalEstimate};
        },
        "c2c0acaf7d968c0e", -0.37032714293828062);
}

TEST(GoldenTraces, TfimVqeWithFaults)
{
    // Application 1 with a mixed 6% fault load: the golden trace pins
    // the fault-recovery path (retries, partials, reference loss) end
    // to end, not just the clean trajectory.
    const Application app = application(1);
    const QismetVqe runner = app.makeRunner();
    checkGolden(
        "tfim-vqe-faults",
        [&] {
            QismetVqeConfig cfg;
            cfg.totalJobs = 200;
            cfg.seed = 23;
            cfg.scheme = Scheme::Qismet;
            cfg.faults.timeoutRate = 0.02;
            cfg.faults.errorRate = 0.01;
            cfg.faults.partialRate = 0.02;
            cfg.faults.referenceLossRate = 0.01;
            cfg.faults.burstCoupling = 1.0;
            const QismetVqeResult res = runner.run(cfg);
            return Trace{trajectoryDigest(res.run),
                         res.run.finalEstimate};
        },
        "52dbf1dc85157f0e", -2.2793949905318844);
}

TEST(GoldenTraces, TfimVqeSampling)
{
    // Application 1 in Sampling mode: finite shots through the readout
    // channel, then measurement-error mitigation, the configuration
    // closest to the paper's hardware runs. The other traces use the
    // Analytic estimator, so this one pins the shot sampler's draws.
    const Application app = application(1);
    const QismetVqe runner = app.makeRunner();
    checkGolden(
        "tfim-vqe-sampling",
        [&] {
            QismetVqeConfig cfg;
            cfg.totalJobs = 120;
            cfg.seed = 29;
            cfg.scheme = Scheme::Qismet;
            cfg.estimator.mode = EstimatorMode::Sampling;
            cfg.estimator.shots = 1024;
            cfg.estimator.mitigateMeasurement = true;
            const QismetVqeResult res = runner.run(cfg);
            return Trace{trajectoryDigest(res.run),
                         res.run.finalEstimate};
        },
        "c1f551937cca9c6b", -3.0883705133866259);
}

TEST(GoldenTraces, QaoaMaxCut)
{
    const MaxCutProblem problem = MaxCutProblem::ring(6);
    const QaoaAnsatz ansatz(problem, 3);
    const QismetVqe runner(problem.costHamiltonian(), ansatz.build(),
                           machineModel("guadalupe"),
                           -problem.maxCutValue());
    checkGolden(
        "qaoa-maxcut",
        [&] {
            QismetVqeConfig cfg;
            cfg.totalJobs = 200;
            cfg.seed = 37;
            cfg.scheme = Scheme::Qismet;
            cfg.initialTheta = {1.2, 2.2, 2.0, 0.5, 1.2, 2.0};
            cfg.spsaInitialStep = 0.10;
            cfg.spsaPerturbation = 0.05;
            const QismetVqeResult res = runner.run(cfg);
            return Trace{trajectoryDigest(res.run),
                         res.run.finalEstimate};
        },
        "b2296b1a912f1e94", -3.7907668020003014);
}

} // namespace
} // namespace qismet
