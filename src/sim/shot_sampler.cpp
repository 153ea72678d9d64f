#include "sim/shot_sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/format_double.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "sim/cdf_search.hpp"
#include "sim/kernels.hpp"

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
                                        formatDouble(p) +
                                        " is outside [0, 1]");
}

/** A qubit's trial thresholds for ideal bit 0 (p10) and 1 (p01). */
struct Trial
{
    std::uint64_t below0;
    std::uint64_t below1;
};

/**
 * One shot at a time, on a register-resident copy of the stream: the
 * loop for hosts and builds without AVX2, and for a qubit with exactly
 * one zero flip probability, whose draw count is known only after the
 * shot's search. Each trial tests its draw against both thresholds,
 * each test setting the qubit's bit of its flip mask where the draw is
 * below, so a shot's draws and tests never wait for its search: only
 * the final combine reads the ideal outcome. Which qubits draw depends
 * on it only through a branch, not a data dependency.
 */
void
tallyEachShot(const detail::CdfSearch &search,
              const std::vector<Trial> &trials, std::uint64_t draws0,
              std::uint64_t draws1, std::size_t shots, Rng &rng,
              std::uint64_t *dense)
{
    Rng local = rng;
    for (std::size_t s = 0; s < shots; ++s) {
        const auto ideal =
            static_cast<std::uint64_t>(search.find(local.uniformBits()));
        const std::uint64_t draws = (draws1 & ideal) | (draws0 & ~ideal);
        std::uint64_t flip0 = 0;
        std::uint64_t flip1 = 0;
        std::uint64_t bit = 1;
        for (const Trial &t : trials) {
            if ((draws & bit) != 0) {
                const std::uint64_t k = local.uniformBits();
                flip0 |= bit & (0 - static_cast<std::uint64_t>(k < t.below0));
                flip1 |= bit & (0 - static_cast<std::uint64_t>(k < t.below1));
            }
            bit <<= 1;
        }
        ++dense[ideal ^ ((flip1 & ideal) | (flip0 & ~ideal))];
    }
    rng = local;
}

#if QISMET_SIMD_X86
/**
 * Shots whose qubits in `draws` draw whatever their ideal outcome:
 * up to ShotSampler::kDrawAheadShots shots' numbers at a time are drawn
 * ahead, in stream order, into rows of the kern::ShotRows layout, and
 * the AVX2 tally tests, searches and counts them. The last block holds
 * only the shots that remain, so the stream ends where the per-shot
 * loop leaves it.
 */
void
tallyDrawingAhead(const detail::CdfSearch &search,
                  const std::vector<Trial> &trials, std::uint64_t draws,
                  std::size_t shots, Rng &rng, std::uint64_t *dense)
{
    const auto width = static_cast<std::size_t>(std::bit_width(draws));
    const std::size_t lanes =
        width == 0 ? 1 : (width + 4) & ~std::size_t{3};
    // The thresholds of a qubit that never draws, of the search lane
    // and of the padding stay 0.
    std::vector<std::uint64_t> below(2 * lanes, 0);
    for (std::size_t q = 0; q < width; ++q) {
        if ((draws >> q & 1) != 0) {
            below[q] = trials[q].below0;
            below[lanes + q] = trials[q].below1;
        }
    }
    std::vector<std::uint64_t> block(ShotSampler::kDrawAheadShots * lanes,
                                     0);
    const kern::ShotRows rows{block.data(), lanes, width, below.data(),
                              below.data() + lanes};

    Rng local = rng;
    for (std::size_t s = 0; s < shots; s += ShotSampler::kDrawAheadShots) {
        const std::size_t count =
            std::min(ShotSampler::kDrawAheadShots, shots - s);
        // Per shot, in stream order: the search draw, then the trials
        // of the drawing qubits in qubit order.
        for (std::size_t r = 0; r < count; ++r) {
            std::uint64_t *row = block.data() + r * lanes;
            row[width] = local.uniformBits();
            for (std::uint64_t m = draws; m != 0; m &= m - 1)
                row[std::countr_zero(m)] = local.uniformBits();
        }
        kern::detail::tallyShotsAvx2(rows, count, search, dense);
    }
    rng = local;
}
#endif

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
    if (num_qubits < 0 || num_qubits > 63)
        throw std::invalid_argument("ShotSampler::sample: num_qubits = " +
                                    std::to_string(num_qubits) +
                                    " is outside [0, 63]");
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
                "] = " + formatDouble(probs[i]) +
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
    const detail::CdfSearch search(cdf, "ShotSampler");
    const auto noisy_qubits =
        readout_.empty() ? 0 : static_cast<std::size_t>(num_qubits);
    if (readout_.size() < noisy_qubits)
        throw std::invalid_argument(
            "ShotSampler: readout entries fewer than qubits");

    // Per qubit, the integer thresholds of its two possible trials
    // (ideal bit 0: p10; ideal bit 1: p01), and the masks of qubits
    // that draw at all for each ideal bit (flip probability above 0).
    std::vector<Trial> trials(noisy_qubits);
    std::uint64_t draws0 = 0;
    std::uint64_t draws1 = 0;
    for (std::size_t q = 0; q < noisy_qubits; ++q) {
        trials[q] = {detail::trialThreshold(readout_[q].p10),
                     detail::trialThreshold(readout_[q].p01)};
        draws0 |= static_cast<std::uint64_t>(trials[q].below0 != 0) << q;
        draws1 |= static_cast<std::uint64_t>(trials[q].below1 != 0) << q;
    }

    // The same draws in the same order as the per-shot loop these
    // replaced (DESIGN.md §17). Where every shot draws for the same
    // qubits, whatever its ideal outcome, the draws can be taken ahead
    // of the searches; elsewhere a shot's draw count is known only
    // after its search.
    std::vector<std::uint64_t> dense(cdf.size(), 0);
#if QISMET_SIMD_X86
    if (draws0 == draws1 && simdEnabled())
        tallyDrawingAhead(search, trials, draws0, shots, rng, dense.data());
    else
        tallyEachShot(search, trials, draws0, draws1, shots, rng,
                      dense.data());
#else
    tallyEachShot(search, trials, draws0, draws1, shots, rng, dense.data());
#endif

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
