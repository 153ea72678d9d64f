#include "noise/tls_burst.hpp"

#include <cmath>
#include <stdexcept>

namespace qismet {

TlsBurstProcess::TlsBurstProcess(TlsBurstParams params, Rng rng)
    : params_(params), rng_(rng)
{
    if (params_.ratePerStep < 0.0)
        throw std::invalid_argument("TlsBurstProcess: negative rate");
    if (params_.meanDurationSteps < 1.0)
        throw std::invalid_argument(
            "TlsBurstProcess: mean duration must be >= 1 step");
    if (params_.decayPerStep <= 0.0 || params_.decayPerStep > 1.0)
        throw std::invalid_argument(
            "TlsBurstProcess: decay must be in (0, 1]");
    if (params_.magnitudeMedian < 0.0)
        throw std::invalid_argument("TlsBurstProcess: negative magnitude");
}

double
TlsBurstProcess::step()
{
    // Age existing bursts.
    std::vector<Burst> alive;
    alive.reserve(bursts_.size());
    for (Burst b : bursts_) {
        b.depth *= params_.decayPerStep;
        if (--b.remainingSteps > 0 && b.depth > 1e-6)
            alive.push_back(b);
    }
    bursts_ = std::move(alive);

    // New arrivals this step.
    const std::uint64_t arrivals = rng_.poisson(params_.ratePerStep);
    for (std::uint64_t k = 0; k < arrivals; ++k) {
        Burst b;
        b.depth = params_.magnitudeMedian *
                  std::exp(params_.magnitudeSigma * rng_.normal());
        // Geometric duration with mean meanDurationSteps:
        // P(len = n) = (1-p)^{n-1} p with p = 1/mean.
        const double p = 1.0 / params_.meanDurationSteps;
        int len = 1;
        while (!rng_.bernoulli(p) && len < 1000)
            ++len;
        b.remainingSteps = len;
        bursts_.push_back(b);
    }

    // Realize this step's intensity, with fine-time-scale flicker per
    // active burst when enabled.
    double total = 0.0;
    for (const Burst &b : bursts_) {
        const double flicker =
            params_.flicker ? rng_.exponential(1.0) : 1.0;
        total += b.depth * flicker;
    }
    lastValue_ = total;
    return lastValue_;
}

} // namespace qismet
