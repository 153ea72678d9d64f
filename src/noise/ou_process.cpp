#include "noise/ou_process.hpp"

#include <cmath>
#include <stdexcept>

namespace qismet {

OuProcess::OuProcess(double mean, double reversion, double sigma,
                     double initial)
    : mean_(mean), reversion_(reversion), sigma_(sigma), x_(initial)
{
    if (reversion <= 0.0)
        throw std::invalid_argument("OuProcess: reversion must be > 0");
    if (sigma < 0.0)
        throw std::invalid_argument("OuProcess: sigma must be >= 0");
}

OuProcess::OuProcess(double mean, double reversion, double sigma)
    : OuProcess(mean, reversion, sigma, mean)
{
}

double
OuProcess::step(double dt, Rng &rng)
{
    if (dt < 0.0)
        throw std::invalid_argument("OuProcess::step: negative dt");
    // Exact transition: x' = μ + (x - μ) e^{-θ dt} + N(0, v),
    // v = σ²(1 - e^{-2θ dt}) / (2θ). Both depend on dt alone, so a run
    // of equal steps computes them once.
    if (!(dt == stepDt_)) {
        stepDt_ = dt;
        stepDecay_ = std::exp(-reversion_ * dt);
        const double var = sigma_ * sigma_ *
                           (1.0 - stepDecay_ * stepDecay_) /
                           (2.0 * reversion_);
        stepStddev_ = std::sqrt(var);
    }
    x_ = mean_ + (x_ - mean_) * stepDecay_ + rng.normal(0.0, stepStddev_);
    return x_;
}

double
OuProcess::stationaryStddev() const
{
    return sigma_ / std::sqrt(2.0 * reversion_);
}

} // namespace qismet
