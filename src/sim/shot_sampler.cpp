#include "sim/shot_sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"
#include "sim/cdf_search.hpp"

namespace qismet {

namespace {

/** Throw unless both probabilities are in [0, 1]; NaN fails too. */
void
checkReadout(const ReadoutError &r, const std::string &where)
{
    for (const auto &[p, field] : {std::pair{r.p10, ".p10"},
                                   std::pair{r.p01, ".p01"}})
        if (!(p >= 0.0 && p <= 1.0))
            throw std::invalid_argument(where + field + " = " +
                                        std::to_string(p) +
                                        " is outside [0, 1]");
}

} // namespace

void
ReadoutError::check() const
{
    checkReadout(*this, "ReadoutError");
}

ShotSampler::ShotSampler(std::vector<ReadoutError> readout)
    : readout_(std::move(readout))
{
    for (std::size_t q = 0; q < readout_.size(); ++q)
        checkReadout(readout_[q],
                     "ShotSampler: readout[" + std::to_string(q) + "]");
}

Counts
ShotSampler::sample(const std::vector<double> &probs, int num_qubits,
                    std::size_t shots, Rng &rng) const
{
    if (probs.size() != (std::size_t{1} << num_qubits))
        throw std::invalid_argument("ShotSampler::sample: size mismatch");

    // Build CDF once.
    std::vector<double> cdf(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        // Round-off may leave a tiny negative; NaN and inf are refused.
        if (!(probs[i] >= -1e-12) || std::isinf(probs[i]))
            throw std::invalid_argument(
                "ShotSampler: probs[" + std::to_string(i) +
                "] = " + std::to_string(probs[i]) +
                " is negative or not finite");
        acc += std::max(0.0, probs[i]);
        cdf[i] = acc;
    }
    return sampleFromCdf(cdf, num_qubits, shots, rng);
}

Counts
ShotSampler::sampleFromCdf(const std::vector<double> &cdf, int num_qubits,
                           std::size_t shots, Rng &rng) const
{
    const double acc = cdf.back();
    if (!(acc > 0.0))
        throw std::invalid_argument(
            "ShotSampler: distribution is all zero or NaN");
    const auto noisy_qubits =
        readout_.empty() ? 0 : static_cast<std::size_t>(num_qubits);
    if (readout_.size() < noisy_qubits)
        throw std::invalid_argument(
            "ShotSampler: readout entries fewer than qubits");

    // flip_p[2q + b]: probability that qubit q, ideally b, reads !b.
    std::vector<double> flip_p(2 * noisy_qubits);
    for (std::size_t q = 0; q < noisy_qubits; ++q) {
        flip_p[2 * q] = readout_[q].p10;
        flip_p[2 * q + 1] = readout_[q].p01;
    }

    // The same draws in the same order as the per-shot loop this
    // replaced (DESIGN.md §17). The stream is a local copy so its state
    // stays in registers, and each qubit's flip probability is chosen
    // by its pre-readout bit, which no other qubit's trial can flip.
    Rng local = rng;
    std::vector<std::uint64_t> dense(cdf.size(), 0);
    for (std::size_t s = 0; s < shots; ++s) {
        const double u = local.uniform() * acc;
        const auto ideal =
            static_cast<std::uint64_t>(detail::cdfLowerBound(cdf, u));
        std::uint64_t flips = 0;
        for (std::size_t q = 0; q < noisy_qubits; ++q) {
            const double p = flip_p[2 * q + ((ideal >> q) & 1)];
            if (p > 0.0)
                flips |= static_cast<std::uint64_t>(local.bernoulli(p)) << q;
        }
        ++dense[ideal ^ flips];
    }
    rng = local;

    Counts counts;
    for (std::size_t i = 0; i < dense.size(); ++i)
        if (dense[i] != 0)
            counts.emplace_hint(counts.end(), i, dense[i]);
    return counts;
}

Counts
ShotSampler::sample(const Statevector &state, std::size_t shots,
                    Rng &rng) const
{
    return sampleFromCdf(state.cumulativeProbabilities(), state.numQubits(),
                         shots, rng);
}

std::vector<Counts>
ShotSampler::sampleBatch(
    const std::vector<std::vector<double>> &distributions, int num_qubits,
    std::size_t shots, Rng &rng) const
{
    // Split the sub-streams serially, before any fan-out, so the
    // randomness each distribution sees is independent of scheduling.
    std::vector<Rng> subRngs;
    subRngs.reserve(distributions.size());
    for (std::size_t i = 0; i < distributions.size(); ++i)
        subRngs.push_back(rng.split());

    std::vector<Counts> out(distributions.size());
    ParallelExecutor::global().parallelFor(
        distributions.size(), [&](std::size_t i) {
            out[i] = sample(distributions[i], num_qubits, shots, subRngs[i]);
        });
    return out;
}

std::uint64_t
totalShots(const Counts &counts)
{
    std::uint64_t total = 0;
    for (const auto &[bits, n] : counts)
        total += n;
    return total;
}

std::vector<double>
countsToProbabilities(const Counts &counts, int num_qubits)
{
    std::vector<double> p(std::size_t{1} << num_qubits, 0.0);
    const auto total = static_cast<double>(totalShots(counts));
    if (total == 0.0)
        return p;
    for (const auto &[bits, n] : counts) {
        if (bits >= p.size())
            throw std::out_of_range("countsToProbabilities: outcome too wide");
        p[bits] = static_cast<double>(n) / total;
    }
    return p;
}

double
countsExpectationZMask(const Counts &counts, std::uint64_t mask)
{
    const auto total = static_cast<double>(totalShots(counts));
    if (total == 0.0)
        return 0.0;
    double e = 0.0;
    for (const auto &[bits, n] : counts) {
        const int parity = std::popcount(bits & mask) & 1;
        e += (parity ? -1.0 : 1.0) * static_cast<double>(n);
    }
    return e / total;
}

} // namespace qismet
