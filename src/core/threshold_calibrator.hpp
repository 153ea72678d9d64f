/**
 * @file
 * QISMET error-threshold calibration.
 *
 * The paper sets the error threshold "so as to skip at most N% of the
 * iterations" (10% default, 1% conservative, 25% aggressive — Sections
 * 6.3 and 7.7). The calibrator turns a target skip fraction into an
 * energy-units threshold by taking the (1 - target) quantile of the
 * expected transient-magnitude distribution, obtained either from a
 * trace prefix (ahead-of-time, how the benches run) or from the online
 * history of |T_m| estimates.
 */

#ifndef QISMET_CORE_THRESHOLD_CALIBRATOR_HPP
#define QISMET_CORE_THRESHOLD_CALIBRATOR_HPP

#include <vector>

#include "noise/transient_trace.hpp"

namespace qismet {

/** The paper's three named skip-rate targets. */
struct SkipTargets
{
    static constexpr double kConservative = 0.01;
    static constexpr double kDefault = 0.10;
    static constexpr double kAggressive = 0.25;
};

/** Computes energy-unit thresholds from skip-rate targets. */
class ThresholdCalibrator
{
  public:
    /**
     * @param target_skip_fraction Maximum fraction of iterations the
     *        controller should skip; in (0, 1).
     */
    explicit ThresholdCalibrator(double target_skip_fraction);

    /**
     * Threshold from a sample of transient magnitudes already in
     * energy units (e.g. online |T_m| history).
     */
    double fromSamples(std::vector<double> magnitudes) const;

    /**
     * Threshold from a transient trace plus the problem's energy scale.
     * @param trace Dimensionless per-job intensities.
     * @param energy_scale Conversion from intensity to energy impact:
     *        the damped objective swing f·|E_ideal - E_mixed| of the
     *        application (see DESIGN.md §5.2's noise composition).
     */
    double fromTrace(const TransientTrace &trace,
                     double energy_scale) const;

    /**
     * Threshold matched to what the controller actually measures: the
     * transient estimate T_m compares *adjacent jobs*, so its
     * distribution is |Δτ · energy_scale + measurement noise|, where Δτ
     * walks consecutive trace intensities and the noise models shot and
     * intra-job effects. A deterministic Monte-Carlo convolution over
     * the trace's consecutive differences gives the quantile.
     *
     * @param noise_sigma Stddev of the T_m measurement noise (≈ √2 ×
     *        the per-estimate shot-noise sigma).
     * @param seed Seed for the (deterministic) noise draws.
     */
    double fromTraceDifferences(const TransientTrace &trace,
                                double energy_scale, double noise_sigma,
                                std::uint64_t seed = 12345) const;

  private:
    double target_;
};

} // namespace qismet

#endif // QISMET_CORE_THRESHOLD_CALIBRATOR_HPP
