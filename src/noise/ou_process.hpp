/**
 * @file
 * Ornstein-Uhlenbeck process — the slow-drift component of the
 * transient-noise model.
 *
 * Paper Fig. 3 shows T1 times wandering around a mean with occasional
 * deep excursions. The wander is modeled here as mean-reverting OU
 * noise; the excursions come from the TLS burst process (tls_burst.hpp).
 */

#ifndef QISMET_NOISE_OU_PROCESS_HPP
#define QISMET_NOISE_OU_PROCESS_HPP

#include <limits>

#include "common/rng.hpp"

namespace qismet {

/** Mean-reverting Gaussian process dx = θ(μ - x)dt + σ dW. */
class OuProcess
{
  public:
    /**
     * @param mean Long-run mean μ.
     * @param reversion Mean-reversion rate θ (per unit time, > 0).
     * @param sigma Diffusion strength σ.
     * @param initial Starting value (defaults to the mean).
     */
    OuProcess(double mean, double reversion, double sigma, double initial);

    /** Construct starting at the mean. */
    OuProcess(double mean, double reversion, double sigma);

    /** Current value. */
    double value() const { return x_; }

    /**
     * Advance by dt using the exact OU transition density (valid for
     * any step size, unlike Euler-Maruyama).
     */
    double step(double dt, Rng &rng);

    /** Stationary standard deviation σ / sqrt(2θ). */
    double stationaryStddev() const;

    /** Reset to a given value. */
    void reset(double value) { x_ = value; }

  private:
    double mean_;
    double reversion_;
    double sigma_;
    double x_;
    /** The last step's dt and the decay and noise stddev it implies. */
    double stepDt_ = std::numeric_limits<double>::quiet_NaN();
    double stepDecay_ = 0.0;
    double stepStddev_ = 0.0;
};

} // namespace qismet

#endif // QISMET_NOISE_OU_PROCESS_HPP
