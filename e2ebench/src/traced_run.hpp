/**
 * @file
 * The traced pass: QISMET runs rebuilt from the public pieces that
 * QismetVqe::run wires together, with spans around every call the
 * benchmark can see, plus the replays that time the layers the driver
 * calls directly.
 *
 * VqeDriver accepts two virtual interfaces, TuningPolicy and
 * StochasticOptimizer; both are wrapped in timing decorators, which is
 * how controller judgements and optimizer plan/propose calls are timed
 * inside a real run. Everything else the driver reaches through
 * non-virtual calls (estimates, journal appends) is timed by replay:
 *  - the points the optimizer decorator saw go back through
 *    EnergyEstimator::estimate and through the public calls an
 *    estimate is built from (compiled-ansatz state preparation, the
 *    expectation plan, shot sampling, measurement mitigation);
 *  - a run directory's own journal (scanJournal) is appended again
 *    through a fresh CheckpointManager, and recover() is timed on the
 *    directory itself.
 */

#ifndef QISMET_E2EBENCH_TRACED_RUN_HPP
#define QISMET_E2EBENCH_TRACED_RUN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "core/qismet_vqe.hpp"
#include "tracer.hpp"

namespace e2e {

/** One traced run and the counts its decorators gathered. */
struct TracedRun
{
    qismet::VqeRunResult run;
    /** EnergyEstimator::estimate calls the run made. */
    std::uint64_t estimateCalls = 0;
    /** Measurement groups (circuits) per energy evaluation. */
    std::size_t numGroups = 0;
    /** Calibration circuits billed to every job (Sampling + mitigation). */
    std::size_t mitigationCircuits = 0;
    /** GradientFaithfulController counters (QISMET runs only). */
    std::uint64_t skips = 0;
    std::uint64_t judged = 0;
    /** Points the optimizer decorator saw, in plan order. */
    std::vector<std::vector<double>> points;
};

/**
 * Rebuild `config` on `app` exactly as QismetVqe::run does for the
 * Baseline and QISMET schemes (in memory: no checkpoint directory),
 * run it under a "vqe.run" root span, and return its result. Its
 * trajectory digest equals QismetVqe::run's for the same inputs.
 * @throws std::invalid_argument for any other scheme or a durable run.
 */
TracedRun tracedRun(const qismet::Application &app,
                    const qismet::QismetVqeConfig &config, Tracer &tracer,
                    std::uint64_t run_id);

/**
 * Replay at most `max_points` of `points` (evenly strided) through
 * EnergyEstimator::estimate and, separately, through the public calls
 * an estimate is built from, each under its own span.
 */
void replayEstimates(const qismet::Application &app,
                     const qismet::QismetVqeConfig &config,
                     const std::vector<std::vector<double>> &points,
                     std::size_t max_points, Tracer &tracer,
                     std::uint64_t run_id);

/** What the persist replay of one run directory did. */
struct PersistReplay
{
    std::uint64_t frames = 0;
    /** Journal bytes plus snapshot bytes the replay wrote. */
    std::uint64_t bytes = 0;
    std::uint64_t snapshots = 0;
    /** jobsUsed of the snapshot recover() returned. */
    std::uint64_t recoveredJobs = 0;
};

/**
 * Time CheckpointManager::recover() on `run_dir` (a directory a durable
 * serve run left behind), then append every frame of its journal again
 * through a fresh CheckpointManager in `scratch_dir`, writing a
 * snapshot at the run's cadence as the driver does.
 * @throws std::runtime_error when the directory holds no checkpoint.
 */
PersistReplay replayPersist(const std::string &run_dir,
                            const std::string &scratch_dir,
                            std::uint64_t config_digest,
                            std::size_t snapshot_every, Tracer &tracer,
                            std::uint64_t run_id);

} // namespace e2e

#endif // QISMET_E2EBENCH_TRACED_RUN_HPP
