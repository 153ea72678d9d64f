/**
 * @file
 * Crash-safe checkpoint/resume demo and CI smoke-test driver.
 *
 * Runs one QISMET VQE with a durable run journal + snapshots in
 * --checkpoint-dir, optionally killing itself (a genuine
 * std::_Exit(43), no destructors, no flushes) after a given number of
 * optimizer iterations. Re-running with --resume continues from the
 * journal and finishes the run bit-identically to a never-interrupted
 * one; the printed trajectory digest is the proof.
 *
 *   # straight run (no checkpointing) — reference digest
 *   ./build/examples/checkpoint_resume --app 1 --jobs 200
 *
 *   # kill after 8 iterations, then resume; digests must match
 *   ./build/examples/checkpoint_resume --app 1 --jobs 200 \
 *       --checkpoint-dir /tmp/ckpt --crash-after-iters 8   # exits 43
 *   ./build/examples/checkpoint_resume --app 1 --jobs 200 \
 *       --checkpoint-dir /tmp/ckpt --resume
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "apps/applications.hpp"
#include "common/thread_pool.hpp"
#include "core/qismet_vqe.hpp"
#include "fault/crash_point.hpp"
#include "hamiltonian/h2_molecule.hpp"
#include "noise/machine_model.hpp"
#include "vqe/run_digest.hpp"

using namespace qismet;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: checkpoint_resume [options]\n"
        "  --app N               paper application (default) or --h2\n"
        "  --h2                  H2 molecule VQE instead of an app\n"
        "  --jobs N              total job budget (default 200)\n"
        "  --seed S              run seed (default 23)\n"
        "  --threads N           worker threads (default 1; 0 = all)\n"
        "  --faults              enable the mixed 6%% fault load\n"
        "  --checkpoint-dir D    journal + snapshots in D\n"
        "  --resume              resume from --checkpoint-dir\n"
        "  --snapshot-every N    snapshot cadence in iterations\n"
        "  --crash-after-iters N std::_Exit(43) at the Nth iteration\n"
        "                        boundary (simulated SIGKILL)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    int appIndex = 1;
    bool useH2 = false;
    std::size_t jobs = 200;
    std::uint64_t seed = 23;
    bool faults = false;
    std::string checkpointDir;
    bool resume = false;
    std::size_t snapshotEvery = 1;
    int crashAfter = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--app" && hasValue)
            appIndex = std::atoi(argv[++i]);
        else if (arg == "--h2")
            useH2 = true;
        else if (arg == "--jobs" && hasValue)
            jobs = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--seed" && hasValue)
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (arg == "--threads" && hasValue) {
            try {
                ParallelExecutor::setGlobalThreads(
                    parseThreadCount("--threads", argv[++i]));
            } catch (const std::invalid_argument &err) {
                std::fprintf(stderr, "checkpoint_resume: %s\n", err.what());
                return 2;
            }
        }
        else if (arg == "--faults")
            faults = true;
        else if (arg == "--checkpoint-dir" && hasValue)
            checkpointDir = argv[++i];
        else if (arg == "--resume")
            resume = true;
        else if (arg == "--snapshot-every" && hasValue)
            snapshotEvery =
                static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--crash-after-iters" && hasValue)
            crashAfter = std::atoi(argv[++i]);
        else
            return usage();
    }

    QismetVqeConfig cfg;
    cfg.totalJobs = jobs;
    cfg.seed = seed;
    cfg.scheme = Scheme::Qismet;
    cfg.checkpointDir = checkpointDir;
    cfg.resume = resume;
    cfg.snapshotEveryIters = snapshotEvery;
    if (faults) {
        cfg.faults.timeoutRate = 0.02;
        cfg.faults.errorRate = 0.01;
        cfg.faults.partialRate = 0.02;
        cfg.faults.referenceLossRate = 0.01;
        cfg.faults.burstCoupling = 1.0;
    }

    if (crashAfter > 0) {
        if (checkpointDir.empty()) {
            std::fprintf(stderr, "--crash-after-iters needs "
                                 "--checkpoint-dir\n");
            return 2;
        }
        // Real process death: no destructors, no stream flushes — the
        // only survivors are the journal and snapshot-log frames
        // already written (the kernel keeps them; the two fsyncs of
        // each snapshot cover an OS crash up to that snapshot).
        CrashPoints::arm(kCrashIterationBoundary, crashAfter,
                         CrashPoints::Action::Exit);
    }

    try {
        QismetVqeResult result;
        if (useH2) {
            const H2Problem prob = h2Problem(0.735);
            const QismetVqe runner(prob.hamiltonian,
                                   makeAnsatz("SU2", 4, 3)->build(),
                                   machineModel("guadalupe"),
                                   prob.fciEnergy);
            result = runner.run(cfg);
        }
        else {
            const Application app = application(appIndex);
            result = app.makeRunner().run(cfg);
        }
        std::printf("digest %s\n",
                    trajectoryDigest(result.run).c_str());
        std::printf("final  %.17g (jobs %zu, carried forward %zu)\n",
                    result.run.finalEstimate, result.run.jobsUsed,
                    result.run.evalsCarriedForward);
    }
    catch (const std::exception &err) {
        std::fprintf(stderr, "checkpoint_resume: %s\n", err.what());
        return 1;
    }
    return 0;
}
