/**
 * @file
 * QISMET's gradient-faithful controller (paper Section 5.2, Fig. 9)
 * plus the two comparison policies that also consume reference reruns:
 * only-transients skipping (Section 5.3) and the Kalman output filter
 * (Section 7.4).
 */

#ifndef QISMET_CORE_CONTROLLER_HPP
#define QISMET_CORE_CONTROLLER_HPP

#include "core/transient_estimator.hpp"
#include "filter/kalman.hpp"
#include "filter/only_transients.hpp"
#include "vqe/vqe_driver.hpp"

namespace qismet {

/** QISMET controller configuration. */
struct QismetControllerConfig
{
    /**
     * Error threshold (the pink band of Fig. 9) as a fraction of the
     * current objective swing |E_m(i) - E_mixed|: sign-flipped
     * gradients whose transient magnitude stays inside the band are
     * accepted anyway. Relative units follow the paper's Section 6.2
     * normalization of transient effects "to the magnitude of the VQA
     * estimations", keeping the controller equally sensitive early
     * (small swing) and late (large swing) in tuning.
     */
    double relativeThreshold = 0.25;
    /**
     * Absolute floor of the effective threshold, guarding against
     * treating pure measurement noise as transients (energy units;
     * a few T_m noise sigmas).
     */
    double noiseFloor = 0.05;
    /** <H> in the maximally mixed state (the swing's reference point). */
    double mixedEnergy = 0.0;
    /**
     * Retry budget: maximum rejections of one iteration before the
     * controller accepts it regardless (Section 8.1 fixes this to 5).
     */
    int retryBudget = 5;
    /**
     * Dynamic thresholding (the paper's Section-7.7 future-work
     * pointer: "intelligent dynamic thresholding can potentially be
     * used to improve these benefits further"): when enabled, the
     * relative threshold is re-calibrated online from the trailing
     * window of observed relative transient magnitudes, so the skip
     * rate tracks `adaptiveSkipTarget` even if the machine's transient
     * behavior drifts away from the ahead-of-time pilot trace.
     */
    bool adaptiveThreshold = false;
    /** Target skip fraction the adaptive threshold aims for. */
    double adaptiveSkipTarget = 0.10;
    /** Trailing window (judgments) used for re-calibration. */
    std::size_t adaptiveWindow = 120;

    /**
     * Degraded-mode accept band (fault resilience): when a job's
     * reference rerun is lost (FaultKind::ReferenceLoss) there is no
     * transient estimate T_m, so the sign test is impossible. The
     * controller then falls back to judging the raw machine gradient
     * G_m against the error-threshold band *widened by this factor* —
     * small moves are trusted (the transient-free gradient cannot
     * differ much), large unverifiable moves are retried. Must be
     * >= 1; 1 reuses the ordinary band.
     */
    double degradedBandFactor = 2.0;

    /**
     * Keep the tuner's gradients faithful to the transient-free
     * prediction (paper Fig. 8 / Section 5.1): when the estimated
     * transient on a job exceeds the error threshold, the energy handed
     * to the tuner is the prediction E_p = E_m - T_m rather than the
     * raw measurement, so the consumed gradient is G_p. Below the
     * threshold the raw measurement is trusted — correcting inside the
     * noise band would only inject estimation noise (the reason the
     * paper's pink band exists, and why the aggressive threshold hurts
     * in low-transient scenarios, Fig. 19). Disable for the skip-only
     * ablation.
     */
    bool correctedFeed = true;
};

/**
 * The gradient-faithful controller: a candidate iteration is accepted
 * iff the machine gradient G_m and the predicted transient-free
 * gradient G_p point the same way, or the estimated transient is inside
 * the error-threshold band; otherwise the iteration is retried until
 * realignment or budget exhaustion.
 */
class GradientFaithfulController : public TuningPolicy
{
  public:
    explicit GradientFaithfulController(QismetControllerConfig config);

    std::string name() const override { return "QISMET"; }
    bool wantsReferenceRerun() const override { return true; }
    Decision judgeEvaluation(const EvalContext &ctx) override;

    /**
     * Recursive transient-free prediction fed to the tuner:
     * fed(i+1) = E_m(i+1) - (E_mR(i) - fed(i)), so consecutive fed
     * differences equal the within-job quantity E_m(i+1) - E_mR(i) —
     * the paper's predicted gradient G_p with the job-level transient
     * cancelled.
     */
    double energyForOptimizer(const EvalContext &ctx) override;

    void reset() override;
    void saveState(Encoder &enc) const override;
    void loadState(Decoder &dec) override;

    /** Iterations the controller chose to skip (retries issued). */
    std::size_t skipsIssued() const { return skips_; }
    /** Iterations judged in total. */
    std::size_t judged() const { return judged_; }
    /** Observed skip fraction. */
    double skipFraction() const;

    const QismetControllerConfig &config() const { return config_; }

    /**
     * Effective (energy-units) threshold for a given previous energy.
     * Partial-result jobs (shot_fraction < 1) carry proportionally more
     * shot noise, so the noise-floor leg of the band widens by
     * 1/sqrt(shot_fraction).
     */
    double effectiveThreshold(double e_prev,
                              double shot_fraction = 1.0) const;

    /** Currently active relative threshold (adapted when dynamic). */
    double activeRelativeThreshold() const { return relativeThreshold_; }

  private:
    void observeRelativeMagnitude(double rel_magnitude);

    QismetControllerConfig config_;
    double relativeThreshold_ = 0.0;
    std::vector<double> relativeHistory_;
    std::size_t skips_ = 0;
    std::size_t judged_ = 0;
    double fedPrev_ = 0.0;
    bool haveFedPrev_ = false;
};

/**
 * Only-transients policy: skip on |T_m| > threshold alone, with the
 * same relative-threshold semantics as the QISMET controller so the
 * two are comparable at equal skip targets (paper Fig. 15).
 */
class OnlyTransientsPolicy : public TuningPolicy
{
  public:
    /**
     * @param relative_threshold Threshold as a fraction of the current
     *        objective swing.
     * @param noise_floor Absolute threshold floor (energy units).
     * @param mixed_energy <H> in the maximally mixed state.
     * @param retry_budget Maximum consecutive skips of one evaluation.
     */
    OnlyTransientsPolicy(double relative_threshold, double noise_floor,
                         double mixed_energy, int retry_budget);

    std::string name() const override { return "Only-transients"; }
    bool wantsReferenceRerun() const override { return true; }
    Decision judgeEvaluation(const EvalContext &ctx) override;
    void reset() override;
    void saveState(Encoder &enc) const override;
    void loadState(Decoder &dec) override;

    std::size_t skipsIssued() const { return skips_; }
    std::size_t judged() const { return judged_; }

  private:
    double relativeThreshold_;
    double noiseFloor_;
    double mixedEnergy_;
    OnlyTransientsSkipper skipper_;
    std::size_t skips_ = 0;
    std::size_t judged_ = 0;
};

/**
 * Kalman output filter as an iteration policy: every iteration is
 * accepted (the tuner runs exactly like the baseline), but the reported
 * energy estimate is the filter's posterior (Section 7.4's evaluation).
 */
class KalmanPolicy : public TuningPolicy
{
  public:
    explicit KalmanPolicy(KalmanParams params);

    std::string name() const override { return "Kalman"; }
    Decision judgeEvaluation(const EvalContext &) override
    {
        return Decision::Accept;
    }
    double transformEnergy(double e_measured) override;
    void reset() override;
    void saveState(Encoder &enc) const override;
    void loadState(Decoder &dec) override;

    const KalmanFilter1D &filter() const { return filter_; }

  private:
    KalmanFilter1D filter_;
};

} // namespace qismet

#endif // QISMET_CORE_CONTROLLER_HPP
