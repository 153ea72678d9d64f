#include "core/controller.hpp"

#include <cmath>
#include <stdexcept>

#include "common/statistics.hpp"

namespace qismet {

GradientFaithfulController::GradientFaithfulController(
    QismetControllerConfig config)
    : config_(config), relativeThreshold_(config.relativeThreshold)
{
    if (config_.relativeThreshold < 0.0 || config_.noiseFloor < 0.0)
        throw std::invalid_argument(
            "GradientFaithfulController: negative threshold");
    if (config_.retryBudget < 1)
        throw std::invalid_argument(
            "GradientFaithfulController: retry budget < 1");
    if (config_.adaptiveThreshold &&
        (config_.adaptiveSkipTarget <= 0.0 ||
         config_.adaptiveSkipTarget >= 1.0 ||
         config_.adaptiveWindow < 10))
        throw std::invalid_argument(
            "GradientFaithfulController: bad adaptive settings");
    if (config_.degradedBandFactor < 1.0)
        throw std::invalid_argument(
            "GradientFaithfulController: degraded band factor < 1");
}

double
GradientFaithfulController::effectiveThreshold(double e_prev,
                                               double shot_fraction) const
{
    return std::max(config_.noiseFloor / std::sqrt(shot_fraction),
                    relativeThreshold_ *
                        std::abs(e_prev - config_.mixedEnergy));
}

void
GradientFaithfulController::observeRelativeMagnitude(double rel_magnitude)
{
    if (!config_.adaptiveThreshold)
        return;
    relativeHistory_.push_back(rel_magnitude);
    if (relativeHistory_.size() < config_.adaptiveWindow)
        return;
    // Re-calibrate from the trailing window, then slide it.
    relativeThreshold_ = quantile(relativeHistory_,
                                  1.0 - config_.adaptiveSkipTarget);
    relativeHistory_.erase(relativeHistory_.begin(),
                           relativeHistory_.begin() +
                               static_cast<std::ptrdiff_t>(
                                   config_.adaptiveWindow / 2));
}

Decision
GradientFaithfulController::judgeEvaluation(const EvalContext &ctx)
{
    if (!ctx.hasReference) {
        if (!ctx.referenceLost)
            return Decision::Accept;
        // Degraded mode: the reference rerun was lost, so no transient
        // estimate exists. Accept on the machine estimate when the
        // perceived move is small (inside the widened band — the
        // transient-free gradient cannot point far elsewhere); retry
        // large, unverifiable moves until the shared budget is spent.
        ++judged_;
        const double band = config_.degradedBandFactor *
                            effectiveThreshold(ctx.ePrev,
                                               ctx.shotFraction);
        if (std::abs(ctx.machineGradient()) <= band)
            return Decision::Accept;
        if (ctx.retryIndex >= config_.retryBudget)
            return Decision::Accept;
        ++skips_;
        return Decision::Retry;
    }

    ++judged_;
    const TransientEstimate est =
        estimateTransient(ctx.ePrev, ctx.eReferenceRerun, ctx.eCurr);

    // Feed the adaptive threshold its observation (relative transient
    // magnitude against the current objective swing).
    const double swing = std::abs(ctx.ePrev - config_.mixedEnergy);
    if (swing > 1e-9)
        observeRelativeMagnitude(std::abs(est.transient) / swing);

    // Fig. 9 (a/b/d/e): gradient directions agree — accept.
    const bool same_direction =
        (est.machineGradient >= 0.0) == (est.predictedGradient >= 0.0);
    if (same_direction)
        return Decision::Accept;

    // Fig. 9 pink band: small swings are always accepted. A sign flip
    // with |T_m| inside the band implies both gradients are tiny.
    if (std::abs(est.transient) <=
        effectiveThreshold(ctx.ePrev, ctx.shotFraction))
        return Decision::Accept;

    // Fig. 9 (c/f): a truly-bad configuration perceived good (or vice
    // versa) — skip, unless the retry budget is spent (Section 8.1:
    // long-lived device changes must eventually be adapted to).
    if (ctx.retryIndex >= config_.retryBudget)
        return Decision::Accept;

    ++skips_;
    return Decision::Retry;
}

double
GradientFaithfulController::energyForOptimizer(const EvalContext &ctx)
{
    if (!config_.correctedFeed || !ctx.hasReference || !haveFedPrev_) {
        fedPrev_ = ctx.eCurr;
        haveFedPrev_ = true;
        return fedPrev_;
    }

    // Estimated transient on this job, relative to the transient-free
    // estimate of the previous evaluation.
    const double transient = ctx.eReferenceRerun - fedPrev_;
    if (std::abs(transient) >
        effectiveThreshold(fedPrev_, ctx.shotFraction)) {
        // Significant: hand the tuner the prediction E_p = E_m - T_m.
        fedPrev_ = ctx.eCurr - transient;
    } else {
        // Inside the noise band: trust the measurement.
        fedPrev_ = ctx.eCurr;
    }
    return fedPrev_;
}

void
GradientFaithfulController::reset()
{
    relativeHistory_.clear();
    relativeThreshold_ = config_.relativeThreshold;
    skips_ = 0;
    judged_ = 0;
    fedPrev_ = 0.0;
    haveFedPrev_ = false;
}

void
GradientFaithfulController::saveState(Encoder &enc) const
{
    enc.writeF64(relativeThreshold_);
    enc.writeVecF64(relativeHistory_);
    enc.writeU64(skips_);
    enc.writeU64(judged_);
    enc.writeF64(fedPrev_);
    enc.writeBool(haveFedPrev_);
}

void
GradientFaithfulController::loadState(Decoder &dec)
{
    relativeThreshold_ = dec.readF64();
    relativeHistory_ = dec.readVecF64();
    skips_ = static_cast<std::size_t>(dec.readU64());
    judged_ = static_cast<std::size_t>(dec.readU64());
    fedPrev_ = dec.readF64();
    haveFedPrev_ = dec.readBool();
}

double
GradientFaithfulController::skipFraction() const
{
    if (judged_ == 0)
        return 0.0;
    return static_cast<double>(skips_) / static_cast<double>(judged_);
}

OnlyTransientsPolicy::OnlyTransientsPolicy(double relative_threshold,
                                           double noise_floor,
                                           double mixed_energy,
                                           int retry_budget)
    : relativeThreshold_(relative_threshold), noiseFloor_(noise_floor),
      mixedEnergy_(mixed_energy), skipper_(1.0, retry_budget)
{
    if (relative_threshold < 0.0 || noise_floor < 0.0)
        throw std::invalid_argument(
            "OnlyTransientsPolicy: negative threshold");
}

Decision
OnlyTransientsPolicy::judgeEvaluation(const EvalContext &ctx)
{
    if (!ctx.hasReference)
        return Decision::Accept;

    ++judged_;
    const TransientEstimate est =
        estimateTransient(ctx.ePrev, ctx.eReferenceRerun, ctx.eCurr);

    const double threshold =
        std::max(noiseFloor_,
                 relativeThreshold_ * std::abs(ctx.ePrev - mixedEnergy_));
    // Normalize so the skipper's unit threshold applies the budget rule.
    if (skipper_.shouldSkip(est.transient / threshold, ctx.retryIndex)) {
        ++skips_;
        return Decision::Retry;
    }
    return Decision::Accept;
}

void
OnlyTransientsPolicy::reset()
{
    skips_ = 0;
    judged_ = 0;
}

void
OnlyTransientsPolicy::saveState(Encoder &enc) const
{
    enc.writeU64(skips_);
    enc.writeU64(judged_);
}

void
OnlyTransientsPolicy::loadState(Decoder &dec)
{
    skips_ = static_cast<std::size_t>(dec.readU64());
    judged_ = static_cast<std::size_t>(dec.readU64());
}

KalmanPolicy::KalmanPolicy(KalmanParams params) : filter_(params) {}

double
KalmanPolicy::transformEnergy(double e_measured)
{
    return filter_.update(e_measured);
}

void
KalmanPolicy::reset()
{
    filter_.reset();
}

void
KalmanPolicy::saveState(Encoder &enc) const
{
    filter_.saveState(enc);
}

void
KalmanPolicy::loadState(Decoder &dec)
{
    filter_.loadState(dec);
}

} // namespace qismet
