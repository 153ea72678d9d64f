#include "fault/fault_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace qismet {

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::JobTimeout: return "timeout";
      case FaultKind::JobError: return "error";
      case FaultKind::PartialResult: return "partial";
      case FaultKind::ReferenceLoss: return "reference-loss";
    }
    return "?";
}

bool
FaultPolicy::enabled() const
{
    return totalBaseRate() > 0.0;
}

double
FaultPolicy::totalBaseRate() const
{
    return timeoutRate + errorRate + partialRate + referenceLossRate;
}

void
FaultPolicy::validate() const
{
    // Negated comparisons throughout, so that NaN fails too.
    const std::pair<const char *, double> rates[] = {
        {"timeoutRate", timeoutRate},
        {"errorRate", errorRate},
        {"partialRate", partialRate},
        {"referenceLossRate", referenceLossRate}};
    for (const auto &[name, rate] : rates)
        if (!(rate >= 0.0 && rate <= 1.0))
            throw std::invalid_argument(std::string("FaultPolicy: ") +
                                        name + " must lie in [0, 1]");
    if (!(burstCoupling >= 0.0))
        throw std::invalid_argument(
            "FaultPolicy: burstCoupling must be a number >= 0");
    if (!(burstScale > 0.0))
        throw std::invalid_argument(
            "FaultPolicy: burstScale must be a number > 0");
    if (!(minShotFraction > 0.0 && minShotFraction <= 1.0))
        throw std::invalid_argument(
            "FaultPolicy: minShotFraction must lie in (0, 1]");
    if (!(maxFaultProbability > 0.0 && maxFaultProbability < 1.0))
        throw std::invalid_argument(
            "FaultPolicy: maxFaultProbability must lie in (0, 1)");
}

double
RetryPolicy::backoffSecondsFor(int attempt) const
{
    if (attempt < 0)
        throw std::invalid_argument("RetryPolicy: negative attempt");
    const double raw =
        baseBackoffSeconds *
        std::pow(backoffMultiplier, static_cast<double>(attempt));
    return std::min(maxBackoffSeconds, raw);
}

void
RetryPolicy::validate() const
{
    if (maxRetries < 1)
        throw std::invalid_argument("RetryPolicy: retry budget < 1");
    // Negated comparisons, so that NaN fails too.
    if (!(baseBackoffSeconds >= 0.0))
        throw std::invalid_argument(
            "RetryPolicy: baseBackoffSeconds must be a number >= 0");
    if (!(maxBackoffSeconds >= 0.0))
        throw std::invalid_argument(
            "RetryPolicy: maxBackoffSeconds must be a number >= 0");
    if (!(backoffMultiplier >= 1.0))
        throw std::invalid_argument(
            "RetryPolicy: backoffMultiplier must be a number >= 1");
    if (maxBackoffSeconds < baseBackoffSeconds)
        throw std::invalid_argument(
            "RetryPolicy: backoff ceiling below base");
}

} // namespace qismet
