#include "traced_run.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/controller.hpp"
#include "fault/fault_injector.hpp"
#include "pauli/grouping.hpp"
#include "persist/checkpoint.hpp"

namespace e2e {

using namespace qismet;

namespace {

/** Times judgeEvaluation and counts the estimates each judged job ran. */
class TimedPolicy final : public TuningPolicy
{
  public:
    TimedPolicy(TuningPolicy &inner, Tracer &tracer, std::uint32_t parent,
                std::uint64_t run)
        : inner_(inner), tracer_(tracer), parent_(parent), run_(run)
    {
    }

    std::string name() const override { return inner_.name(); }
    bool wantsReferenceRerun() const override
    {
        return inner_.wantsReferenceRerun();
    }
    Decision judgeEvaluation(const EvalContext &ctx) override
    {
        // A job whose reference was lost still ran both circuits.
        estimates_ += (ctx.hasReference || ctx.referenceLost) ? 2 : 1;
        ScopedSpan span(tracer_, "core.judge", parent_, run_);
        return inner_.judgeEvaluation(ctx);
    }
    bool acceptMove(double e_iter_prev, double e_iter_new) override
    {
        return inner_.acceptMove(e_iter_prev, e_iter_new);
    }
    double energyForOptimizer(const EvalContext &ctx) override
    {
        return inner_.energyForOptimizer(ctx);
    }
    double transformEnergy(double e_measured) override
    {
        return inner_.transformEnergy(e_measured);
    }
    void reset() override { inner_.reset(); }
    void saveState(Encoder &enc) const override { inner_.saveState(enc); }
    void loadState(Decoder &dec) override { inner_.loadState(dec); }

    /** Estimates run by judged jobs (every completed job but the first). */
    std::uint64_t judgedEstimates() const { return estimates_; }

  private:
    TuningPolicy &inner_;
    Tracer &tracer_;
    std::uint32_t parent_;
    std::uint64_t run_;
    std::uint64_t estimates_ = 0;
};

/** Times plan/propose and keeps every planned point for replay. */
class TimedOptimizer final : public StochasticOptimizer
{
  public:
    TimedOptimizer(StochasticOptimizer &inner, Tracer &tracer,
                   std::uint32_t parent, std::uint64_t run,
                   std::vector<std::vector<double>> &points)
        : inner_(inner), tracer_(tracer), parent_(parent), run_(run),
          points_(points)
    {
    }

    std::string name() const override { return inner_.name(); }
    std::vector<std::vector<double>> plan(const std::vector<double> &theta,
                                          int k, Rng &rng) override
    {
        std::vector<std::vector<double>> planned;
        {
            ScopedSpan span(tracer_, "optim.plan", parent_, run_);
            planned = inner_.plan(theta, k, rng);
        }
        points_.insert(points_.end(), planned.begin(), planned.end());
        return planned;
    }
    std::vector<double> propose(const std::vector<double> &theta, int k,
                                const std::vector<double> &energies) override
    {
        ScopedSpan span(tracer_, "optim.propose", parent_, run_);
        return inner_.propose(theta, k, energies);
    }
    double evaluationCostFactor() const override
    {
        return inner_.evaluationCostFactor();
    }
    void saveState(Encoder &enc) const override { inner_.saveState(enc); }
    void loadState(Decoder &dec) override { inner_.loadState(dec); }

  private:
    StochasticOptimizer &inner_;
    Tracer &tracer_;
    std::uint32_t parent_;
    std::uint64_t run_;
    std::vector<std::vector<double>> &points_;
};

} // namespace

TracedRun
tracedRun(const Application &app, const QismetVqeConfig &config,
          Tracer &tracer, std::uint64_t run_id)
{
    if (config.scheme != Scheme::Baseline && config.scheme != Scheme::Qismet)
        throw std::invalid_argument(
            "tracedRun: only the Baseline and QISMET schemes are rebuilt");
    if (!config.checkpointDir.empty())
        throw std::invalid_argument("tracedRun: runs are traced in memory");

    // Every step below mirrors QismetVqe::run (src/core/qismet_vqe.cpp)
    // for these two schemes; the digest check against the untraced run
    // proves the mirror exact.
    TracedRun traced;
    const std::uint32_t root = tracer.open("vqe.run", 0, run_id);
    const QismetVqe runner = app.makeRunner();
    MachineModel machine = app.machine;
    if (config.transientScale >= 0.0)
        machine.transient.scale = config.transientScale;

    std::optional<EnergyEstimator> estimator;
    {
        ScopedSpan span(tracer, "vqe.estimator_build", root, run_id);
        estimator.emplace(app.hamiltonian, app.ansatzCircuit,
                          machine.staticModel(), config.estimator);
    }
    {
        // The constructor's two compile steps, repeated through the
        // public calls it makes so each is timed on its own.
        PauliSum simplified = app.hamiltonian;
        simplified.simplify();
        std::shared_ptr<const ExpectationPlan> plan;
        {
            ScopedSpan span(tracer, "pauli.plan_compile", root, run_id);
            plan = compileExpectationPlan(simplified);
        }
        ScopedSpan span(tracer, "sim.compile", root, run_id);
        std::vector<CompiledCircuit> compiled;
        compiled.emplace_back(app.ansatzCircuit);
        for (const MeasurementGroup &g : plan->measurementGroups())
            compiled.emplace_back(
                basisChangeCircuit(g, app.ansatzCircuit.numQubits()));
    }
    traced.numGroups = estimator->numGroups();

    TransientTrace trace;
    {
        ScopedSpan span(tracer, "noise.trace", root, run_id);
        trace = machine.traceGenerator(config.traceVersion)
                    .generate(config.totalJobs + 8);
    }
    const EstimatorConfig &est_cfg = config.estimator;
    const int mitigation_circuits =
        (est_cfg.mode == EstimatorMode::Sampling &&
         est_cfg.mitigateMeasurement)
            ? MeasurementMitigator::kCalibrationCircuits
            : 0;
    traced.mitigationCircuits =
        static_cast<std::size_t>(mitigation_circuits);
    JobExecutor executor(*estimator, trace, config.seed * 0x5851F42Dull + 1,
                         config.intraJobJitter,
                         config.intraJobRelativeJitter,
                         mitigation_circuits);
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
                        1.0 / std::max(0.05, estimator->staticSurvival()));
    Spsa spsa(gains);
    TimedOptimizer optimizer(spsa, tracer, root, run_id, traced.points);

    std::unique_ptr<TuningPolicy> inner;
    GradientFaithfulController *controller = nullptr;
    if (config.scheme == Scheme::Qismet) {
        double shot_var = 0.0;
        for (const auto &t : app.hamiltonian.terms())
            if (!t.pauli.isIdentity())
                shot_var += t.coefficient * t.coefficient /
                            static_cast<double>(est_cfg.shots);
        const double jitter_energy =
            config.intraJobJitter * runner.energyScale();
        QismetControllerConfig cc;
        {
            ScopedSpan span(tracer, "core.calibrate", root, run_id);
            cc.relativeThreshold = runner.calibratedThreshold(
                SkipTargets::kDefault, config.traceVersion,
                config.transientScale);
        }
        cc.noiseFloor =
            std::sqrt(2.0 * shot_var + 2.0 * jitter_energy * jitter_energy);
        cc.mixedEnergy = app.hamiltonian.identityCoefficient();
        cc.retryBudget = config.retryBudget;
        cc.correctedFeed = config.qismetCorrectedFeed;
        cc.adaptiveSkipTarget = SkipTargets::kDefault;
        auto owned = std::make_unique<GradientFaithfulController>(cc);
        controller = owned.get();
        inner = std::move(owned);
    } else {
        inner = std::make_unique<AlwaysAcceptPolicy>();
    }
    TimedPolicy policy(*inner, tracer, root, run_id);

    VqeDriverConfig dcfg;
    dcfg.totalJobs = config.totalJobs;
    dcfg.seed = config.seed;
    dcfg.retry = config.faultRetry;
    dcfg.retry.maxRetries = config.retryBudget;
    dcfg.deadlineSimSeconds = config.deadlineSimSeconds;
    VqeDriver driver(*estimator, executor, optimizer, policy, dcfg);

    std::vector<double> theta0 = config.initialTheta;
    if (theta0.empty()) {
        Rng init_rng(config.seed ^ 0xA5A5A5A5ull);
        theta0.resize(static_cast<std::size_t>(num_params));
        for (auto &t : theta0)
            t = init_rng.uniform(-M_PI, M_PI);
    }
    {
        ScopedSpan span(tracer, "vqe.drive", root, run_id);
        traced.run = driver.run(theta0);
    }
    tracer.close(root);

    // The first completed job is never judged (nothing to compare it
    // with) and ran one estimate.
    const bool any_completed =
        std::any_of(traced.run.history.begin(), traced.run.history.end(),
                    [](const VqeJobRecord &r) {
                        return r.status != JobStatus::TimedOut &&
                               r.status != JobStatus::Failed;
                    });
    traced.estimateCalls =
        policy.judgedEstimates() + (any_completed ? 1u : 0u);
    if (controller != nullptr) {
        traced.skips = controller->skipsIssued();
        traced.judged = controller->judged();
    }
    return traced;
}

void
replayEstimates(const Application &app, const QismetVqeConfig &config,
                const std::vector<std::vector<double>> &points,
                std::size_t max_points, Tracer &tracer, std::uint64_t run_id)
{
    if (points.empty() || max_points == 0)
        return;
    const StaticNoiseModel noise = app.machine.staticModel();
    const EstimatorConfig &est_cfg = config.estimator;
    const EnergyEstimator estimator(app.hamiltonian, app.ansatzCircuit,
                                    noise, est_cfg);
    const int n = app.ansatzCircuit.numQubits();
    const std::size_t dim = std::size_t{1} << n;

    // The pieces EnergyEstimator builds privately, rebuilt from the
    // same public constructors.
    PauliSum simplified = app.hamiltonian;
    simplified.simplify();
    const auto plan = compileExpectationPlan(simplified);
    const CompiledCircuit ansatz(app.ansatzCircuit);
    std::vector<CompiledCircuit> basis;
    for (const MeasurementGroup &g : plan->measurementGroups())
        basis.emplace_back(basisChangeCircuit(g, n));
    const ShotSampler sampler(noise.readoutErrors(n));
    const MeasurementMitigator mitigator(n, noise.readoutErrors(n));
    const bool sampling = est_cfg.mode == EstimatorMode::Sampling;

    Rng rng(config.seed ^ 0x5EED5EEDull);
    std::vector<double> terms(plan->numTerms());
    double sink = 0.0;
    const std::size_t stride =
        std::max<std::size_t>(1, (points.size() + max_points - 1) /
                                     max_points);
    for (std::size_t i = 0; i < points.size(); i += stride) {
        const std::vector<double> &theta = points[i];
        const std::uint32_t parent =
            tracer.open("vqe.replay_point", 0, run_id);
        {
            ScopedSpan span(tracer, "vqe.estimate", parent, run_id);
            sink += estimator.estimate(theta, 0.0, rng);
        }
        Statevector state(n);
        {
            ScopedSpan span(tracer, "sim.prepare", parent, run_id);
            state.run(ansatz, theta);
        }
        if (!sampling) {
            ScopedSpan span(tracer, "pauli.expect", parent, run_id);
            plan->termExpectations(state, terms.data());
            sink += terms[0];
        } else {
            // The replayed estimate ran at transient intensity 0, where
            // the survival factor is the static one.
            const double f = estimator.staticSurvival();
            for (const CompiledCircuit &bc : basis) {
                Statevector rotated = state;
                rotated.run(bc);
                std::vector<double> probs = rotated.probabilities();
                for (double &p : probs)
                    p = f * p + (1.0 - f) / static_cast<double>(dim);
                Counts counts;
                {
                    ScopedSpan span(tracer, "sim.sample", parent, run_id);
                    counts = sampler.sample(probs, n, est_cfg.shots, rng);
                }
                if (est_cfg.mitigateMeasurement) {
                    ScopedSpan span(tracer, "mitigation.mitigate", parent,
                                    run_id);
                    sink += MeasurementMitigator::clipToPhysical(
                        mitigator.mitigateCounts(counts))[0];
                }
            }
        }
        tracer.close(parent);
    }
    if (!std::isfinite(sink))
        throw std::runtime_error("replayEstimates: non-finite estimate");
}

PersistReplay
replayPersist(const std::string &run_dir, const std::string &scratch_dir,
              std::uint64_t config_digest, std::size_t snapshot_every,
              Tracer &tracer, std::uint64_t run_id)
{
    PersistReplay out;
    {
        CheckpointManager manager({run_dir, snapshot_every, true},
                                  config_digest);
        std::optional<CheckpointManager::Recovered> recovered;
        {
            ScopedSpan span(tracer, "persist.recover", 0, run_id);
            recovered = manager.recover();
        }
        if (!recovered)
            throw std::runtime_error("run directory '" + run_dir +
                                     "' holds no recoverable checkpoint");
        out.recoveredJobs = recovered->snapshot.jobsUsed;
    }

    const JournalScanResult scan = scanJournal(run_dir + "/journal.qjnl");
    const RunSnapshot snapshot = loadSnapshotFile(run_dir + "/snapshot.qsnp");
    std::filesystem::remove_all(scratch_dir);
    CheckpointManager replay({scratch_dir, snapshot_every, false},
                             config_digest);
    replay.beginFresh();
    auto write_snapshot = [&] {
        ScopedSpan span(tracer, "persist.snapshot", 0, run_id);
        replay.writeSnapshot(snapshot);
        ++out.snapshots;
    };
    // The driver snapshots before its first iteration, at every
    // cadence boundary, and once more when the run ends.
    write_snapshot();
    for (const JournalFrame &frame : scan.frames) {
        Decoder dec(frame.payload);
        if (frame.type == JournalFrameType::Job) {
            const JournalJobRecord rec = JournalJobRecord::decode(dec);
            ScopedSpan span(tracer, "persist.append", 0, run_id);
            replay.appendJob(rec);
            continue;
        }
        const JournalIterationRecord rec =
            JournalIterationRecord::decode(dec);
        {
            ScopedSpan span(tracer, "persist.append", 0, run_id);
            replay.appendIteration(rec);
        }
        if ((rec.iteration + 1) % snapshot_every == 0)
            write_snapshot();
    }
    write_snapshot();
    out.frames = scan.frames.size();
    out.bytes = std::filesystem::file_size(replay.journalPath()) +
                out.snapshots *
                    std::filesystem::file_size(replay.snapshotPath());
    std::filesystem::remove_all(scratch_dir);
    return out;
}

} // namespace e2e
