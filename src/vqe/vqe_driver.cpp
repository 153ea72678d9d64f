#include "vqe/vqe_driver.hpp"

#include "common/sim_clock.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fault/crash_point.hpp"
#include "persist/checkpoint.hpp"

namespace qismet {

BlockingPolicy::BlockingPolicy(double tolerance) : tolerance_(tolerance)
{
    if (!(tolerance >= 0.0))
        throw std::invalid_argument(
            "BlockingPolicy: tolerance must be a number >= 0");
}

bool
BlockingPolicy::acceptMove(double e_iter_prev, double e_iter_new)
{
    return e_iter_new <= e_iter_prev + tolerance_;
}

std::vector<double>
VqeRunResult::perJobEnergySeries() const
{
    std::vector<double> out;
    out.reserve(history.size());
    for (const auto &rec : history)
        out.push_back(rec.eMeasured);
    return out;
}

std::vector<double>
VqeRunResult::acceptedEnergySeries() const
{
    std::vector<double> out;
    for (const auto &rec : history)
        if (rec.accepted)
            out.push_back(rec.eMeasured);
    return out;
}

VqeDriver::VqeDriver(const EnergyEstimator &estimator, JobExecutor &executor,
                     StochasticOptimizer &optimizer, TuningPolicy &policy,
                     VqeDriverConfig config)
    : estimator_(estimator), executor_(executor), optimizer_(optimizer),
      policy_(policy), config_(config)
{
    if (config_.totalJobs == 0)
        throw std::invalid_argument("VqeDriver: zero job budget");
    if (config_.finalWindow == 0)
        throw std::invalid_argument("VqeDriver: zero final window");
    // Negated, so that NaN fails too (a NaN deadline would otherwise
    // silently mean no deadline).
    if (!(config_.jobDurationSeconds >= 0.0))
        throw std::invalid_argument(
            "VqeDriver: jobDurationSeconds must be a number >= 0");
    if (!(config_.deadlineSimSeconds >= 0.0))
        throw std::invalid_argument(
            "VqeDriver: deadlineSimSeconds must be a number >= 0");
    if (config_.crashAfterIters > 0 && config_.checkpoint == nullptr)
        throw std::invalid_argument(
            "VqeDriver: crashAfterIters without a checkpoint would "
            "lose the run");
    config_.retry.validate();
}

VqeRunResult
VqeDriver::run(const std::vector<double> &initial_theta)
{
    policy_.reset();
    Rng opt_rng(config_.seed);

    VqeRunResult result;
    // Records never reallocate below this many jobs; a larger budget
    // may end early at its deadline, so its records grow as they go.
    constexpr std::size_t kReservedJobs = std::size_t{1} << 16;
    const std::size_t reserved = std::min(config_.totalJobs, kReservedJobs);
    result.history.reserve(reserved);
    result.iterationEnergies.reserve(reserved);
    // Simulated-time base of the run. The serve layer's breakers and
    // chaos windows run on their own fleet SimClock in ticks; this one
    // counts the run's seconds and is a pure function of the config,
    // which is what makes the deadline check deterministic.
    SimClock simClock;

    std::vector<double> theta = initial_theta;
    int k = 0;          // optimizer iteration
    int eval_index = 0; // global evaluation counter

    // Previous evaluation's circuits & accepted energy (the QISMET
    // reference). Absent until the first evaluation completes.
    std::vector<double> prev_point;
    double e_prev = 0.0;
    bool have_prev = false;

    double e_iter_prev = 0.0;
    bool have_iter_prev = false;

    CheckpointManager *ckpt = config_.checkpoint;
    if (ckpt != nullptr) {
        if (auto recovered = ckpt->recover()) {
            const RunSnapshot &snap = recovered->snapshot;
            try {
                k = checkedInt<int>("iteration", snap.iteration);
                eval_index = checkedInt<int>("evalIndex", snap.evalIndex, 0);
            }
            catch (const SerialError &err) {
                throw CheckpointError(
                    std::string("corrupt run counters in snapshot: ") +
                    err.what());
            }
            theta = snap.theta;
            prev_point = snap.prevPoint;
            e_prev = snap.ePrev;
            have_prev = snap.havePrev;
            e_iter_prev = snap.eIterPrev;
            have_iter_prev = snap.haveIterPrev;
            result.jobsUsed = static_cast<std::size_t>(snap.jobsUsed);
            result.retriesUsed =
                static_cast<std::size_t>(snap.retriesUsed);
            result.rejections =
                static_cast<std::size_t>(snap.rejections);
            result.faultsSeen =
                static_cast<std::size_t>(snap.faultsSeen);
            result.faultRetries =
                static_cast<std::size_t>(snap.faultRetries);
            result.evalsCarriedForward =
                static_cast<std::size_t>(snap.evalsCarriedForward);
            result.simTimeSeconds = snap.simTimeSeconds;
            simClock.restoreSeconds(snap.simTimeSeconds);
            result.backoffSeconds = snap.backoffSeconds;
            opt_rng.restoreState(snap.optimizerRng);
            executor_.restoreProgress(
                static_cast<std::size_t>(snap.executorJobs),
                static_cast<std::size_t>(snap.executorCircuits));
            try {
                Decoder policyDec(snap.policyState);
                policy_.loadState(policyDec);
                Decoder optDec(snap.optimizerState);
                optimizer_.loadState(optDec);
            }
            catch (const SerialError &err) {
                throw CheckpointError(
                    std::string("corrupt component state in snapshot: ") +
                    err.what());
            }
            // Replay the journal prefix to rebuild the run history.
            std::uint64_t iterFrames = 0;
            try {
                for (const JournalFrame &frame : recovered->frames) {
                    Decoder dec(frame.payload);
                    if (frame.type == JournalFrameType::Job) {
                        const JournalJobRecord jr =
                            JournalJobRecord::decode(dec);
                        VqeJobRecord rec;
                        rec.jobIndex =
                            static_cast<std::size_t>(jr.jobIndex);
                        rec.evalIndex =
                            checkedInt<int>("evalIndex", jr.evalIndex, 0);
                        rec.retryIndex =
                            checkedInt<int>("retryIndex", jr.retryIndex, 0);
                        rec.transientIntensity = jr.transientIntensity;
                        rec.eMeasured = jr.eMeasured;
                        rec.accepted = jr.accepted;
                        rec.status =
                            checkedEnum("status", jr.status,
                                        JobStatus::ReferenceLost);
                        rec.carriedForward = jr.carriedForward;
                        result.history.push_back(rec);
                    }
                    else {
                        const JournalIterationRecord ir =
                            JournalIterationRecord::decode(dec);
                        result.iterationEnergies.push_back(
                            ir.eReported);
                        ++iterFrames;
                    }
                }
            }
            catch (const SerialError &err) {
                throw CheckpointError(
                    std::string("corrupt journal record payload: ") +
                    err.what());
            }
            if (result.history.size() != result.jobsUsed)
                throw CheckpointError(
                    "journal replay rebuilt " +
                    std::to_string(result.history.size()) +
                    " job records but the snapshot accounts for " +
                    std::to_string(result.jobsUsed));
            if (iterFrames != snap.iteration)
                throw CheckpointError(
                    "journal replay rebuilt " +
                    std::to_string(iterFrames) +
                    " iterations but the snapshot was taken at "
                    "iteration " +
                    std::to_string(snap.iteration));
            ckpt->beginResumed(*recovered);
        }
        else {
            ckpt->beginFresh();
        }
    }

    // Capture the complete resumable state at an iteration boundary.
    auto snapshot_now = [&] {
        RunSnapshot snap;
        snap.iteration = static_cast<std::uint64_t>(k);
        snap.evalIndex = eval_index;
        snap.theta = theta;
        snap.prevPoint = prev_point;
        snap.havePrev = have_prev;
        snap.ePrev = e_prev;
        snap.haveIterPrev = have_iter_prev;
        snap.eIterPrev = e_iter_prev;
        snap.jobsUsed = result.jobsUsed;
        snap.retriesUsed = result.retriesUsed;
        snap.rejections = result.rejections;
        snap.faultsSeen = result.faultsSeen;
        snap.faultRetries = result.faultRetries;
        snap.evalsCarriedForward = result.evalsCarriedForward;
        snap.simTimeSeconds = result.simTimeSeconds;
        snap.backoffSeconds = result.backoffSeconds;
        snap.optimizerRng = opt_rng.saveState();
        snap.executorJobs = executor_.jobsExecuted();
        snap.executorCircuits = executor_.circuitsExecuted();
        Encoder policyEnc;
        policy_.saveState(policyEnc);
        snap.policyState = policyEnc.take();
        Encoder optEnc;
        optimizer_.saveState(optEnc);
        snap.optimizerState = optEnc.take();
        ckpt->writeSnapshot(std::move(snap));
    };

    // Write-ahead journal one executed job (no-op without durability).
    auto journal_job = [&](const VqeJobRecord &rec,
                           const std::vector<double> &point,
                           double shot_fraction, bool has_reference,
                           double e_reference,
                           double transient_estimate) {
        if (ckpt == nullptr)
            return;
        JournalJobRecord jr;
        jr.jobIndex = rec.jobIndex;
        jr.evalIndex = rec.evalIndex;
        jr.retryIndex = rec.retryIndex;
        jr.transientIntensity = rec.transientIntensity;
        jr.eMeasured = rec.eMeasured;
        jr.accepted = rec.accepted;
        jr.status = static_cast<std::uint8_t>(rec.status);
        jr.carriedForward = rec.carriedForward;
        jr.shotFraction = shot_fraction;
        jr.transientEstimate = transient_estimate;
        jr.hasReference = has_reference;
        jr.eReference = e_reference;
        jr.point = point;
        ckpt->appendJob(jr);
    };

    // Evaluate one parameter point, retrying per the policy, charging
    // the job budget. On success fills the optimizer-facing energy
    // (possibly policy-corrected) and the raw measured energy. Returns
    // false when the budget ran out before an accepted measurement.
    // Every job reuses one request and one result.
    JobRequest request;
    JobResult job;
    auto evaluate_point = [&](const std::vector<double> &point,
                              double &energy_out,
                              double &measured_out) -> bool {
        const bool with_reference =
            policy_.wantsReferenceRerun() && have_prev;
        int retry = 0;
        while (result.jobsUsed < config_.totalJobs) {
            request.evaluations.resize(with_reference ? 2 : 1);
            request.evaluations[0] = point;
            if (with_reference)
                request.evaluations[1] = prev_point;

            executor_.execute(request, job);
            ++result.jobsUsed;
            simClock.advanceSeconds(config_.jobDurationSeconds);
            result.simTimeSeconds = simClock.seconds();

            if (job.failed()) {
                // The fleet returned nothing. Record the loss, then
                // either retry (backoff in simulated time, consuming
                // the shared per-evaluation budget) or — once the
                // budget is spent and a previous estimate exists —
                // degrade: carry that estimate forward and mark the
                // evaluation skipped.
                ++result.faultsSeen;
                VqeJobRecord rec;
                rec.jobIndex = job.jobIndex;
                rec.evalIndex = eval_index;
                rec.retryIndex = retry;
                rec.transientIntensity = job.transientIntensity;
                rec.status = job.status;
                if (retry >= config_.retry.maxRetries && have_prev) {
                    rec.carriedForward = true;
                    result.history.push_back(rec);
                    journal_job(rec, point, job.shotFraction, false,
                                0.0, 0.0);
                    ++result.evalsCarriedForward;
                    energy_out = e_prev;
                    measured_out = e_prev;
                    ++eval_index;
                    return true;
                }
                result.history.push_back(rec);
                journal_job(rec, point, job.shotFraction, false, 0.0,
                            0.0);
                const double backoff =
                    config_.retry.backoffSecondsFor(retry);
                simClock.advanceSeconds(backoff);
                result.simTimeSeconds = simClock.seconds();
                result.backoffSeconds += backoff;
                ++retry;
                ++result.retriesUsed;
                ++result.faultRetries;
                continue;
            }

            const bool reference_lost =
                with_reference && job.status == JobStatus::ReferenceLost;
            if (job.status == JobStatus::PartialResult || reference_lost)
                ++result.faultsSeen;

            EvalContext ctx;
            ctx.evalIndex = eval_index;
            ctx.retryIndex = retry;
            ctx.ePrev = e_prev;
            ctx.eCurr = job.energies[0];
            ctx.hasReference = with_reference && !reference_lost;
            ctx.eReferenceRerun =
                ctx.hasReference ? job.energies[1] : 0.0;
            ctx.referenceLost = reference_lost;
            ctx.shotFraction = job.shotFraction;

            const Decision decision =
                have_prev ? policy_.judgeEvaluation(ctx)
                          : Decision::Accept;

            VqeJobRecord rec;
            rec.jobIndex = job.jobIndex;
            rec.evalIndex = eval_index;
            rec.retryIndex = retry;
            rec.transientIntensity = job.transientIntensity;
            rec.eMeasured = ctx.eCurr;
            rec.accepted = (decision == Decision::Accept);
            rec.status = job.status;
            result.history.push_back(rec);
            journal_job(rec, point, ctx.shotFraction, ctx.hasReference,
                        ctx.eReferenceRerun,
                        ctx.hasReference ? ctx.transientEstimate()
                                         : 0.0);

            if (decision == Decision::Accept) {
                energy_out = policy_.energyForOptimizer(ctx);
                measured_out = ctx.eCurr;
                prev_point = point;
                e_prev = ctx.eCurr;
                have_prev = true;
                ++eval_index;
                return true;
            }
            ++retry;
            ++result.retriesUsed;
        }
        return false;
    };

    std::vector<double> energies;
    while (result.jobsUsed < config_.totalJobs) {
        // Deadline budget, checked only at iteration boundaries so the
        // truncation point is a pure function of the configuration. The
        // check precedes the snapshot/crash hooks: an expired run ends
        // cleanly even when a planned crash was armed for this leg.
        if (config_.deadlineSimSeconds > 0.0 &&
            simClock.seconds() >= config_.deadlineSimSeconds) {
            result.deadlineExpired = true;
            break;
        }
        if (ckpt != nullptr) {
            if (ckpt->snapshotDue(static_cast<std::uint64_t>(k)))
                snapshot_now();
            CrashPoints::hit(kCrashIterationBoundary);
        }
        if (config_.crashAfterIters > 0 &&
            static_cast<std::size_t>(k) >= config_.crashAfterIters)
            throw SimulatedCrash(kCrashIterationBoundary);

        const auto points = optimizer_.plan(theta, k, opt_rng);

        energies.clear();
        double measured_sum = 0.0;
        bool complete = true;
        for (const auto &p : points) {
            double e = 0.0;
            double m = 0.0;
            if (!evaluate_point(p, e, m)) {
                complete = false;
                break;
            }
            energies.push_back(e);
            measured_sum += m;
        }
        if (!complete)
            break;

        // Iteration energy: mean of this iteration's *measured*
        // evaluations (for symmetric SPSA pairs this is a first-order
        // estimate of E(θ)). The optimizer consumes the possibly
        // policy-corrected `energies` instead.
        const double e_iter =
            measured_sum / static_cast<double>(energies.size());
        const double e_reported = policy_.transformEnergy(e_iter);
        result.iterationEnergies.push_back(e_reported);

        const std::vector<double> candidate =
            optimizer_.propose(theta, k, energies);

        bool move_accepted = true;
        if (have_iter_prev)
            move_accepted = policy_.acceptMove(e_iter_prev, e_iter);
        if (move_accepted) {
            theta = candidate;
            e_iter_prev = e_iter;
            have_iter_prev = true;
        } else {
            ++result.rejections;
            // Blocking: stay; the next iteration re-probes from theta.
        }
        if (ckpt != nullptr) {
            JournalIterationRecord ir;
            ir.iteration = static_cast<std::uint64_t>(k);
            ir.eReported = e_reported;
            ir.moveAccepted = move_accepted;
            ckpt->appendIteration(ir);
        }
        ++k;
    }

    // Final snapshot: a completed (or budget-exhausted) run leaves its
    // checkpoint at the end, so resuming it is a deterministic no-op
    // that just recomputes the final statistics.
    if (ckpt != nullptr)
        snapshot_now();

    result.finalTheta = theta;
    result.circuitsUsed = executor_.circuitsExecuted();

    const auto &series = result.iterationEnergies;
    const std::size_t window = std::min(config_.finalWindow, series.size());
    if (window == 0) {
        result.finalEstimate = 0.0;
    } else {
        double sum = 0.0;
        for (std::size_t i = series.size() - window; i < series.size(); ++i)
            sum += series[i];
        result.finalEstimate = sum / static_cast<double>(window);
    }
    result.finalIdealEnergy = estimator_.idealEnergy(theta);
    return result;
}

} // namespace qismet
