/**
 * @file
 * Two-level-system (TLS) burst process — the outlier component of the
 * transient-noise model.
 *
 * Paper Section 3.1: TLS defects parasitically couple to a transmon and
 * transiently collapse its T1/T2; the coupling strength varies in time,
 * so impactful events are rare, large, and short-lived (Fig. 3's circled
 * outliers; Sec. 8.1: "transient errors disappear in one or two
 * repetitions"). The model: Poisson arrivals, log-normal magnitudes,
 * geometric durations, with optional exponential decay over a burst's
 * lifetime.
 */

#ifndef QISMET_NOISE_TLS_BURST_HPP
#define QISMET_NOISE_TLS_BURST_HPP

#include <vector>

#include "common/rng.hpp"

namespace qismet {

/** Parameters of the burst process. */
struct TlsBurstParams
{
    /** Expected bursts per sampled step (Poisson rate). */
    double ratePerStep = 0.02;
    /** Log-normal magnitude: median burst depth. */
    double magnitudeMedian = 0.3;
    /** Log-normal magnitude: sigma of the underlying normal. */
    double magnitudeSigma = 0.5;
    /** Geometric duration: mean steps a burst persists (>= 1). */
    double meanDurationSteps = 1.5;
    /** Per-step decay of an active burst's depth (1 = no decay). */
    double decayPerStep = 0.7;
    /**
     * Within-burst flicker: each step an active burst contributes
     * depth × Exp(1). A TLS near-resonant coupling fluctuates on fine
     * time scales (paper Section 3.1), so even inside a bad phase some
     * jobs execute almost cleanly — the clean windows QISMET's retries
     * exploit ("realignment would happen ... in an instance of low
     * transient noise"). Set false for a constant-depth burst.
     */
    bool flicker = true;
};

/**
 * Superposition of active bursts sampled step-by-step. The value at a
 * step is the sum of every active burst's current depth (>= 0).
 */
class TlsBurstProcess
{
  public:
    TlsBurstProcess(TlsBurstParams params, Rng rng);

    /** Advance one step and return the realized burst intensity. */
    double step();

    /** Realized intensity of the current step without advancing. */
    double value() const { return lastValue_; }

    /** Number of currently active bursts. */
    std::size_t activeBursts() const { return bursts_.size(); }

    const TlsBurstParams &params() const { return params_; }

  private:
    struct Burst
    {
        double depth;
        int remainingSteps;
    };

    TlsBurstParams params_;
    /** std::exp(-params_.ratePerStep), for the arrival draws. */
    double arrivalExp_ = 0.0;
    Rng rng_;
    std::vector<Burst> bursts_;
    double lastValue_ = 0.0;
};

} // namespace qismet

#endif // QISMET_NOISE_TLS_BURST_HPP
