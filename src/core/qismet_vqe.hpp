/**
 * @file
 * Integrated QISMET VQE experiment runner: wires a Hamiltonian, an
 * ansatz, a simulated machine (static noise + transient trace), an SPSA
 * family tuner and an acceptance policy into one reproducible run.
 *
 * All of the paper's evaluation schemes (Section 6.3) are constructed
 * here from a single Scheme tag, so every bench compares schemes under
 * identical traces, seeds, and job budgets.
 */

#ifndef QISMET_CORE_QISMET_VQE_HPP
#define QISMET_CORE_QISMET_VQE_HPP

#include <memory>
#include <optional>
#include <string>

#include "ansatz/ansatz.hpp"
#include "core/controller.hpp"
#include "core/threshold_calibrator.hpp"
#include "fault/fault_policy.hpp"
#include "noise/machine_model.hpp"
#include "optim/spsa_variants.hpp"
#include "pauli/pauli_sum.hpp"
#include "vqe/vqe_driver.hpp"

namespace qismet {

/** The paper's evaluation schemes (Section 6.3). */
enum class Scheme
{
    NoiseFree,          ///< Ideal simulator, no noise of any kind.
    Baseline,           ///< Static + transient noise, no transient control.
    Qismet,             ///< Gradient-faithful controller, 10% skip target.
    QismetConservative, ///< 1% skip target.
    QismetAggressive,   ///< 25% skip target.
    QismetDynamic,      ///< Online-adaptive threshold (Sec. 7.7 extension).
    Blocking,           ///< SPSA blocking option.
    Resampling,         ///< SPSA with 2x gradient resampling.
    SecondOrder,        ///< 2-SPSA Hessian preconditioning.
    OnlyTransients,     ///< Skip on transient magnitude alone.
    Kalman,             ///< Kalman output filtering on the estimates.
};

/** Display name matching the paper's figure legends. */
std::string schemeName(Scheme scheme);

/** One experiment configuration. */
struct QismetVqeConfig
{
    Scheme scheme = Scheme::Baseline;
    /** Machine-execution budget; every retry consumes a job. */
    std::size_t totalJobs = 500;
    /** Master seed (optimizer, shot noise, initial point). */
    std::uint64_t seed = 7;
    /** Transient trace version (the paper's v1/v2 trials). */
    int traceVersion = 1;
    /** Energy-estimation mode and shots. */
    EstimatorConfig estimator;
    /**
     * Transient-scale override; < 0 keeps the machine's default. A
     * non-finite value is refused.
     */
    double transientScale = -1.0;
    /** QISMET retry budget (Section 8.1 fixes 5). */
    int retryBudget = 5;
    /** Kalman hyper-parameters (Kalman scheme only). */
    KalmanParams kalman;
    /**
     * Only-transients skip target (fraction of jobs whose transient
     * magnitude exceeds the threshold), used by that scheme only.
     */
    double onlyTransientsSkipTarget = 0.10;
    /** Absolute intra-job transient jitter passed to the JobExecutor. */
    double intraJobJitter = 0.01;
    /** Relative (∝ |τ|) intra-job jitter passed to the JobExecutor. */
    double intraJobRelativeJitter = 0.15;
    /**
     * SPSA initial step scale, interpreted as a *total* L2 step target:
     * the per-coordinate step is this divided by sqrt(numParams), so
     * deeper ansatz (more parameters) automatically get proportionally
     * finer per-parameter moves. The full gain schedule is derived from
     * this and the job budget via SpsaGains::forHorizon.
     */
    double spsaInitialStep = 0.25;
    /** QISMET extension: feed transient-corrected energies (ablation). */
    bool qismetCorrectedFeed = true;
    /** SPSA perturbation size c. */
    double spsaPerturbation = 0.12;
    /**
     * Starting parameters; empty draws uniform [-π, π) from the seed.
     * Ansatz families with structured landscapes (e.g. QAOA, which
     * wants small positive angles) should supply their own.
     */
    std::vector<double> initialTheta;
    /**
     * Fault-injection policy for the job pipeline (all rates zero =
     * disabled, the default; existing experiments are unchanged).
     * Fault draws derive from `seed` through an independent stream.
     */
    FaultPolicy faults;
    /**
     * Backoff shape for fault retries. Its maxRetries is overridden
     * with `retryBudget` at run time, so fault retries and controller
     * reject-retries share one per-evaluation budget.
     */
    RetryPolicy faultRetry;
    /**
     * Durability: directory for the write-ahead journal + snapshots.
     * Empty (the default) disables checkpointing entirely.
     */
    std::string checkpointDir;
    /**
     * Resume from `checkpointDir` if a valid checkpoint of *this*
     * configuration exists there (config digests are verified);
     * otherwise start fresh. Resumed runs continue bit-identically
     * with the uninterrupted run at any thread count.
     */
    bool resume = false;
    /** Snapshot cadence in optimizer iterations (>= 1). */
    std::size_t snapshotEveryIters = 1;
    /**
     * Deadline budget over the run's simulated seconds; 0 = none. The
     * run stops at the first optimizer-iteration boundary at or past
     * the budget (VqeRunResult::deadlineExpired). Included in
     * runConfigDigest: a deadline changes the trajectory.
     */
    double deadlineSimSeconds = 0.0;
    /**
     * Per-run crash injection (serve soak harness): when > 0, the run
     * throws SimulatedCrash at this optimizer-iteration boundary after
     * any due snapshot. Requires `checkpointDir`. Excluded from
     * runConfigDigest like the other durability fields, so a resume
     * leg with a different (or no) planned crash can recover the
     * checkpoint.
     */
    std::size_t crashAfterIters = 0;
};

/**
 * Digest of the configuration fields that determine a run's trajectory
 * (plus the parameter count). Stamped into journal and snapshot
 * headers so a checkpoint can never be resumed under a different
 * configuration.
 */
std::uint64_t runConfigDigest(const QismetVqeConfig &config,
                              int num_params);

/** Result of one experiment. */
struct QismetVqeResult
{
    std::string scheme;
    VqeRunResult run;
    /** Exact ground-state energy of the problem. */
    double exactGroundEnergy = 0.0;
    /** Expectation in the maximally mixed state. */
    double mixedEnergy = 0.0;
    /** Controller skip fraction (QISMET / only-transients schemes). */
    double skipFraction = 0.0;
    /** Calibrated error threshold used (energy units), if any. */
    double errorThreshold = 0.0;

    /**
     * Distance of the final reported estimate from the exact ground
     * energy (lower is better).
     */
    double estimateError() const
    {
        return run.finalEstimate - exactGroundEnergy;
    }
};

/** Builds and runs QISMET VQE experiments for one problem + machine. */
class QismetVqe
{
  public:
    /**
     * @param hamiltonian Problem observable.
     * @param ansatz_circuit Parameterized ansatz.
     * @param machine Simulated machine (noise + transient personality).
     * @param exact_ground_energy Exact reference energy for metrics.
     */
    QismetVqe(PauliSum hamiltonian, Circuit ansatz_circuit,
              MachineModel machine, double exact_ground_energy);

    /**
     * Run one experiment.
     * @throws std::invalid_argument naming the field when a numeric
     *         config field is NaN, negative or out of range; the check
     *         runs before anything is built, so no job runs.
     */
    QismetVqeResult run(const QismetVqeConfig &config) const;

    /**
     * Run the same experiment once per seed, fanning the independent
     * trials out over the global ParallelExecutor (the bench layer's
     * seed-averaged figures are exactly this shape). Every trial
     * derives all of its randomness from its own seed, so the returned
     * results — ordered like `seeds` — are bit-identical for every
     * thread count.
     */
    std::vector<QismetVqeResult>
    runEnsemble(const QismetVqeConfig &config,
                const std::vector<std::uint64_t> &seeds) const;

    /**
     * The energy scale used to convert trace intensities into
     * energy-unit thresholds: f_static · (E_mixed - E_ground).
     */
    double energyScale() const;

    /**
     * Calibrated QISMET *relative* error threshold (fraction of the
     * current objective swing) for a skip-rate target, using a pilot
     * trace from this machine (paper Section 6.3: "threshold is set so
     * as to skip at most 10% of the iterations"). The quantile is taken
     * over the job-to-job transient intensity differences — the
     * dimensionless distribution the controller's relative test sees.
     */
    double calibratedThreshold(double skip_target, int trace_version,
                               double transient_scale = -1.0) const;

    const MachineModel &machine() const { return machine_; }
    double exactGroundEnergy() const { return exactGroundEnergy_; }

  private:
    PauliSum hamiltonian_;
    Circuit ansatz_;
    MachineModel machine_;
    double exactGroundEnergy_;
};

} // namespace qismet

#endif // QISMET_CORE_QISMET_VQE_HPP
