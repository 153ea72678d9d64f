#include "core/threshold_calibrator.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/statistics.hpp"

namespace qismet {

ThresholdCalibrator::ThresholdCalibrator(double target_skip_fraction)
    : target_(target_skip_fraction)
{
    // Negated, so that NaN fails too.
    if (!(target_ > 0.0 && target_ < 1.0))
        throw std::invalid_argument(
            "ThresholdCalibrator: target must be in (0, 1)");
}

double
ThresholdCalibrator::fromSamples(std::vector<double> magnitudes) const
{
    if (magnitudes.empty())
        throw std::invalid_argument(
            "ThresholdCalibrator::fromSamples: empty sample");
    for (auto &m : magnitudes)
        m = std::abs(m);
    return quantile(std::move(magnitudes), 1.0 - target_);
}

double
ThresholdCalibrator::fromTrace(const TransientTrace &trace,
                               double energy_scale) const
{
    if (trace.size() == 0)
        throw std::invalid_argument(
            "ThresholdCalibrator::fromTrace: empty trace");
    if (!(energy_scale > 0.0))
        throw std::invalid_argument(
            "ThresholdCalibrator::fromTrace: energy scale must be > 0");

    std::vector<double> mags;
    mags.reserve(trace.size());
    for (double v : trace.values())
        mags.push_back(std::abs(v) * energy_scale);
    return quantile(std::move(mags), 1.0 - target_);
}

double
ThresholdCalibrator::fromTraceDifferences(const TransientTrace &trace,
                                          double energy_scale,
                                          double noise_sigma,
                                          std::uint64_t seed) const
{
    if (trace.size() < 2)
        throw std::invalid_argument(
            "ThresholdCalibrator::fromTraceDifferences: trace too short");
    if (!(energy_scale > 0.0))
        throw std::invalid_argument(
            "ThresholdCalibrator::fromTraceDifferences: bad energy scale");
    if (!(noise_sigma >= 0.0))
        throw std::invalid_argument(
            "ThresholdCalibrator::fromTraceDifferences: sigma must be a "
            "number >= 0");

    const auto &v = trace.values();
    std::vector<double> mags;
    mags.reserve(v.size() - 1);
    if (noise_sigma == 0.0) {
        // normal(0, 0) is exactly +0.0, and |x + 0.0| is |x| bit for
        // bit, so the draws (from a local stream that is then thrown
        // away) are skipped without moving a bit.
        for (std::size_t i = 0; i + 1 < v.size(); ++i)
            mags.push_back(std::abs((v[i + 1] - v[i]) * energy_scale));
        return quantile(std::move(mags), 1.0 - target_);
    }
    Rng rng(seed);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
        const double dtau = v[i + 1] - v[i];
        mags.push_back(std::abs(dtau * energy_scale +
                                rng.normal(0.0, noise_sigma)));
    }
    return quantile(std::move(mags), 1.0 - target_);
}

} // namespace qismet
