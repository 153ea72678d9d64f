#include "core/qismet_vqe.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/atomic_file.hpp"
#include "common/format_double.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_injector.hpp"
#include "persist/checkpoint.hpp"

namespace qismet {

std::uint64_t
runConfigDigest(const QismetVqeConfig &config, int num_params)
{
    Encoder enc;
    enc.writeU32(static_cast<std::uint32_t>(config.scheme));
    enc.writeU64(config.totalJobs);
    enc.writeU64(config.seed);
    enc.writeI64(config.traceVersion);
    // The runtime knobs (QISMET_SIMD, QISMET_THREADS) are bit-identical
    // at every setting, so they are not encoded.
    enc.writeU32(static_cast<std::uint32_t>(config.estimator.mode));
    enc.writeU64(config.estimator.shots);
    enc.writeBool(config.estimator.mitigateMeasurement);
    enc.writeF64(config.transientScale);
    enc.writeI64(config.retryBudget);
    enc.writeF64(config.kalman.transition);
    enc.writeF64(config.kalman.measurementVariance);
    enc.writeF64(config.kalman.processVariance);
    enc.writeF64(config.kalman.initialVariance);
    enc.writeF64(config.onlyTransientsSkipTarget);
    enc.writeF64(config.intraJobJitter);
    enc.writeF64(config.intraJobRelativeJitter);
    enc.writeF64(config.spsaInitialStep);
    enc.writeBool(config.qismetCorrectedFeed);
    enc.writeF64(config.spsaPerturbation);
    enc.writeVecF64(config.initialTheta);
    enc.writeF64(config.faults.timeoutRate);
    enc.writeF64(config.faults.errorRate);
    enc.writeF64(config.faults.partialRate);
    enc.writeF64(config.faults.referenceLossRate);
    enc.writeF64(config.faults.burstCoupling);
    enc.writeF64(config.faults.burstScale);
    enc.writeF64(config.faults.minShotFraction);
    enc.writeF64(config.faults.maxFaultProbability);
    enc.writeI64(config.faultRetry.maxRetries);
    enc.writeF64(config.faultRetry.baseBackoffSeconds);
    enc.writeF64(config.faultRetry.backoffMultiplier);
    enc.writeF64(config.faultRetry.maxBackoffSeconds);
    enc.writeF64(config.deadlineSimSeconds);
    enc.writeI64(num_params);
    return fnv1a64(enc.bytes());
}

std::string
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::NoiseFree: return "Noise-free";
      case Scheme::Baseline: return "Baseline";
      case Scheme::Qismet: return "QISMET";
      case Scheme::QismetConservative: return "QISMET-conservative";
      case Scheme::QismetAggressive: return "QISMET-aggressive";
      case Scheme::QismetDynamic: return "QISMET-dynamic";
      case Scheme::Blocking: return "Blocking";
      case Scheme::Resampling: return "Resampling";
      case Scheme::SecondOrder: return "2nd-order";
      case Scheme::OnlyTransients: return "Only-transients";
      case Scheme::Kalman: return "Kalman";
    }
    return "?";
}

namespace {

/** Throws naming `field` unless `ok`; `value` is printed round-trip. */
void
require(bool ok, const char *field, const char *rule, double value)
{
    if (!ok)
        throw std::invalid_argument(std::string("QismetVqe::run: ") +
                                    field + " must be " + rule + ", got " +
                                    formatDouble(value));
}

/**
 * Every numeric field of a run's config, checked before anything is
 * built: each check is negated, so that NaN fails too. The fault
 * policy and the retry backoff name their own fields.
 */
void
validateConfig(const QismetVqeConfig &config)
{
    auto count = [](auto v) { return static_cast<double>(v); };
    auto positive = [](double v) { return v > 0.0 && std::isfinite(v); };
    auto nonNegative = [](double v) {
        return v >= 0.0 && std::isfinite(v);
    };
    require(config.totalJobs >= 1, "totalJobs", ">= 1",
            count(config.totalJobs));
    require(config.traceVersion >= 1, "traceVersion", ">= 1",
            count(config.traceVersion));
    require(config.estimator.shots >= 1, "estimator.shots", ">= 1",
            count(config.estimator.shots));
    require(std::isfinite(config.transientScale), "transientScale",
            "finite (< 0 keeps the machine's default)",
            config.transientScale);
    require(config.retryBudget >= 1, "retryBudget", ">= 1",
            count(config.retryBudget));
    require(std::isfinite(config.kalman.transition), "kalman.transition",
            "finite", config.kalman.transition);
    require(positive(config.kalman.measurementVariance),
            "kalman.measurementVariance", "a finite number > 0",
            config.kalman.measurementVariance);
    require(nonNegative(config.kalman.processVariance),
            "kalman.processVariance", "a finite number >= 0",
            config.kalman.processVariance);
    require(positive(config.kalman.initialVariance),
            "kalman.initialVariance", "a finite number > 0",
            config.kalman.initialVariance);
    require(config.onlyTransientsSkipTarget > 0.0 &&
                config.onlyTransientsSkipTarget < 1.0,
            "onlyTransientsSkipTarget", "in (0, 1)",
            config.onlyTransientsSkipTarget);
    require(nonNegative(config.intraJobJitter), "intraJobJitter",
            "a finite number >= 0", config.intraJobJitter);
    require(nonNegative(config.intraJobRelativeJitter),
            "intraJobRelativeJitter", "a finite number >= 0",
            config.intraJobRelativeJitter);
    require(positive(config.spsaInitialStep), "spsaInitialStep",
            "a finite number > 0", config.spsaInitialStep);
    require(positive(config.spsaPerturbation), "spsaPerturbation",
            "a finite number > 0", config.spsaPerturbation);
    // θ reaches CompiledCircuit::bind unchecked: a non-finite entry
    // would run every job and return a NaN estimate.
    for (std::size_t i = 0; i < config.initialTheta.size(); ++i) {
        const double t = config.initialTheta[i];
        if (!std::isfinite(t))
            throw std::invalid_argument(
                "QismetVqe::run: initialTheta[" + std::to_string(i) +
                "] must be finite, got " + formatDouble(t));
    }
    config.faults.validate();
    RetryPolicy retry = config.faultRetry;
    retry.maxRetries = config.retryBudget;
    retry.validate();
    require(config.snapshotEveryIters >= 1, "snapshotEveryIters", ">= 1",
            count(config.snapshotEveryIters));
    require(config.deadlineSimSeconds >= 0.0, "deadlineSimSeconds",
            "a number >= 0 (0 = none)", config.deadlineSimSeconds);
}

} // namespace

QismetVqe::QismetVqe(PauliSum hamiltonian, Circuit ansatz_circuit,
                     MachineModel machine, double exact_ground_energy)
    : hamiltonian_(std::move(hamiltonian)),
      ansatz_(std::move(ansatz_circuit)), machine_(std::move(machine)),
      exactGroundEnergy_(exact_ground_energy)
{
    if (hamiltonian_.numQubits() != ansatz_.numQubits())
        throw std::invalid_argument("QismetVqe: width mismatch");
    if (hamiltonian_.numQubits() > machine_.numQubits)
        throw std::invalid_argument(
            "QismetVqe: problem wider than the machine");
}

double
QismetVqe::energyScale() const
{
    const StaticNoiseModel noise = machine_.staticModel();
    const double f = noise.survivalFactor(ansatz_);
    const double mixed = hamiltonian_.identityCoefficient();
    const double scale = f * std::abs(mixed - exactGroundEnergy_);
    return scale > 0.0 ? scale : 1.0;
}

double
QismetVqe::calibratedThreshold(double skip_target, int trace_version,
                               double transient_scale) const
{
    if (std::isnan(transient_scale))
        throw std::invalid_argument(
            "QismetVqe::calibratedThreshold: transient_scale is NaN");
    MachineModel m = machine_;
    if (transient_scale >= 0.0)
        m.transient.scale = transient_scale;
    // A pilot trace long enough for stable tail quantiles; unit energy
    // scale and no noise term: the result is the dimensionless quantile
    // of |Δτ| that the controller's relative test consumes.
    TransientTrace pilot = m.traceGenerator(trace_version).generate(4000);
    return ThresholdCalibrator(skip_target)
        .fromTraceDifferences(pilot, 1.0, 0.0);
}

std::vector<QismetVqeResult>
QismetVqe::runEnsemble(const QismetVqeConfig &config,
                       const std::vector<std::uint64_t> &seeds) const
{
    std::vector<QismetVqeResult> results(seeds.size());
    ParallelExecutor::global().parallelFor(
        seeds.size(), [&](std::size_t i) {
            QismetVqeConfig trial = config;
            trial.seed = seeds[i];
            // Trials must not share journal files: isolate each seed
            // in its own checkpoint subdirectory.
            if (!trial.checkpointDir.empty())
                trial.checkpointDir +=
                    "/seed-" + std::to_string(seeds[i]);
            results[i] = run(trial);
        });
    return results;
}

QismetVqeResult
QismetVqe::run(const QismetVqeConfig &config) const
{
    validateConfig(config);

    MachineModel machine = machine_;
    if (config.transientScale >= 0.0)
        machine.transient.scale = config.transientScale;

    // --- Estimator ---------------------------------------------------
    EstimatorConfig est_cfg = config.estimator;
    std::optional<StaticNoiseModel> noise;
    if (config.scheme == Scheme::NoiseFree) {
        est_cfg.mode = EstimatorMode::Ideal;
    } else {
        noise.emplace(machine.staticModel());
    }
    EnergyEstimator estimator(hamiltonian_, ansatz_, noise, est_cfg);

    // --- Transient trace & executor ----------------------------------
    TransientTrace trace;
    if (config.scheme != Scheme::NoiseFree) {
        trace = machine.traceGenerator(config.traceVersion)
                    .generate(config.totalJobs + 8);
    }
    const int mitigation_circuits =
        (est_cfg.mode == EstimatorMode::Sampling &&
         est_cfg.mitigateMeasurement)
            ? MeasurementMitigator::kCalibrationCircuits
            : 0;
    JobExecutor executor(estimator, trace, config.seed * 0x5851F42Dull + 1,
                         config.intraJobJitter,
                         config.intraJobRelativeJitter,
                         mitigation_circuits);

    // --- Fault injection ----------------------------------------------
    // The injector's stream is derived from the master seed but
    // independent of the executor's, so the same trajectory modulo the
    // faults themselves is replayed when rates change from zero.
    std::optional<FaultInjector> injector;
    if (config.faults.enabled()) {
        injector.emplace(config.faults,
                         config.seed * 0xD1342543DE82EF95ull + 0xFA17ull);
        executor.setFaultInjector(&*injector);
    }

    // --- Optimizer ----------------------------------------------------
    SpsaGains gains = SpsaGains::forHorizon(
        config.totalJobs,
        config.spsaInitialStep /
            std::sqrt(static_cast<double>(ansatz_.numParams())),
        config.spsaPerturbation);
    // Emulate Qiskit SPSA's learning-rate calibration: measured
    // gradients scale with the survival factor, so normalize the step
    // size by it (capped to avoid divergence on very deep circuits).
    gains.a *= std::min(4.0, 1.0 / std::max(0.05,
                                            estimator.staticSurvival()));
    std::unique_ptr<StochasticOptimizer> optimizer;
    switch (config.scheme) {
      case Scheme::Resampling:
        optimizer = std::make_unique<ResamplingSpsa>(gains);
        break;
      case Scheme::SecondOrder:
        optimizer = std::make_unique<SecondOrderSpsa>(gains);
        break;
      default:
        optimizer = std::make_unique<Spsa>(gains);
        break;
    }

    // --- Policy ---------------------------------------------------------
    // Blocking tolerance (Qiskit calibrates this from the observed loss
    // variance): twice the shot-noise sigma plus a few percent of the
    // objective swing, so ordinary statistical and drift wiggle is not
    // rejected.
    double shot_var = 0.0;
    for (const auto &t : hamiltonian_.terms())
        if (!t.pauli.isIdentity())
            shot_var += t.coefficient * t.coefficient /
                        static_cast<double>(est_cfg.shots);
    const double blocking_tol =
        2.0 * std::sqrt(shot_var) + 0.05 * energyScale();

    // T_m measurement noise: two shot-noisy estimates plus the absolute
    // intra-job jitter on each (in energy units).
    const double jitter_energy = config.intraJobJitter * energyScale();
    const double tm_sigma =
        std::sqrt(2.0 * shot_var + 2.0 * jitter_energy * jitter_energy);

    std::unique_ptr<TuningPolicy> policy;
    double threshold_used = 0.0;
    auto make_qismet = [&](double skip_target, bool adaptive = false) {
        QismetControllerConfig cc;
        cc.relativeThreshold = calibratedThreshold(
            skip_target, config.traceVersion, config.transientScale);
        cc.noiseFloor = 1.0 * tm_sigma;
        cc.mixedEnergy = hamiltonian_.identityCoefficient();
        cc.retryBudget = config.retryBudget;
        cc.correctedFeed = config.qismetCorrectedFeed;
        cc.adaptiveThreshold = adaptive;
        cc.adaptiveSkipTarget = skip_target;
        threshold_used = cc.relativeThreshold;
        return std::make_unique<GradientFaithfulController>(cc);
    };

    switch (config.scheme) {
      case Scheme::Qismet:
        policy = make_qismet(SkipTargets::kDefault);
        break;
      case Scheme::QismetDynamic:
        policy = make_qismet(SkipTargets::kDefault, /*adaptive=*/true);
        break;
      case Scheme::QismetConservative:
        policy = make_qismet(SkipTargets::kConservative);
        break;
      case Scheme::QismetAggressive:
        policy = make_qismet(SkipTargets::kAggressive);
        break;
      case Scheme::Blocking:
        policy = std::make_unique<BlockingPolicy>(blocking_tol);
        break;
      case Scheme::OnlyTransients: {
        threshold_used =
            calibratedThreshold(config.onlyTransientsSkipTarget,
                                config.traceVersion,
                                config.transientScale);
        // The naive scheme has no noise-floor refinement (that guard is
        // part of QISMET's pink band): low-percentile thresholds fire
        // on measurement noise and waste the retry budget, which is
        // exactly the failure Fig. 15 demonstrates.
        policy = std::make_unique<OnlyTransientsPolicy>(
            threshold_used, 1e-9, hamiltonian_.identityCoefficient(),
            config.retryBudget);
        break;
      }
      case Scheme::Kalman:
        policy = std::make_unique<KalmanPolicy>(config.kalman);
        break;
      default:
        policy = std::make_unique<AlwaysAcceptPolicy>();
        break;
    }

    // --- Durability -----------------------------------------------------
    std::optional<CheckpointManager> checkpoint;
    if (!config.checkpointDir.empty()) {
        CheckpointConfig ckpt_cfg;
        ckpt_cfg.dir = config.checkpointDir;
        ckpt_cfg.snapshotEveryIters = config.snapshotEveryIters;
        ckpt_cfg.resume = config.resume;
        checkpoint.emplace(ckpt_cfg,
                           runConfigDigest(config, ansatz_.numParams()));
    }

    // --- Driver ---------------------------------------------------------
    VqeDriverConfig dcfg;
    dcfg.totalJobs = config.totalJobs;
    dcfg.seed = config.seed;
    dcfg.retry = config.faultRetry;
    dcfg.retry.maxRetries = config.retryBudget;
    if (checkpoint)
        dcfg.checkpoint = &*checkpoint;
    dcfg.deadlineSimSeconds = config.deadlineSimSeconds;
    dcfg.crashAfterIters = config.crashAfterIters;
    if (config.crashAfterIters > 0 && config.checkpointDir.empty())
        throw std::invalid_argument(
            "QismetVqe::run: crashAfterIters requires checkpointDir");
    VqeDriver driver(estimator, executor, *optimizer, *policy, dcfg);

    // Deterministic initial point shared across schemes with equal seed.
    std::vector<double> theta0 = config.initialTheta;
    if (theta0.empty()) {
        Rng init_rng(config.seed ^ 0xA5A5A5A5ull);
        theta0.resize(static_cast<std::size_t>(ansatz_.numParams()));
        for (auto &t : theta0)
            t = init_rng.uniform(-M_PI, M_PI);
    } else if (theta0.size() !=
               static_cast<std::size_t>(ansatz_.numParams())) {
        throw std::invalid_argument(
            "QismetVqe::run: initialTheta size mismatch");
    }

    QismetVqeResult result;
    result.scheme = schemeName(config.scheme);
    result.run = driver.run(theta0);
    result.exactGroundEnergy = exactGroundEnergy_;
    result.mixedEnergy = hamiltonian_.identityCoefficient();
    result.errorThreshold = threshold_used;

    if (auto *ctrl =
            dynamic_cast<GradientFaithfulController *>(policy.get())) {
        result.skipFraction = ctrl->skipFraction();
    } else if (auto *ot =
                   dynamic_cast<OnlyTransientsPolicy *>(policy.get())) {
        result.skipFraction =
            ot->judged() == 0
                ? 0.0
                : static_cast<double>(ot->skipsIssued()) /
                      static_cast<double>(ot->judged());
    }
    return result;
}

} // namespace qismet
