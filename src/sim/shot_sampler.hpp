/**
 * @file
 * Finite-shot sampling with readout (SPAM) errors.
 *
 * Bridges the exact simulators and the noisy "machine" view: sampled
 * bitstrings pass through an asymmetric per-qubit readout-error channel,
 * producing the counts dictionaries measurement-error mitigation and the
 * VQE energy estimator consume.
 */

#ifndef QISMET_SIM_SHOT_SAMPLER_HPP
#define QISMET_SIM_SHOT_SAMPLER_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace qismet {

/** Measurement outcome histogram: basis-state index -> count. */
using Counts = std::map<std::uint64_t, std::uint64_t>;

/**
 * Per-qubit asymmetric readout error.
 *
 * p10 = P(read 1 | prepared 0), p01 = P(read 0 | prepared 1). Real
 * devices have p01 > p10 (relaxation during readout biases toward 0).
 */
struct ReadoutError
{
    double p10 = 0.0;
    double p01 = 0.0;

    /** Validate the probabilities. */
    void check() const;
};

/** Samples counts from ideal distributions through readout errors. */
class ShotSampler
{
  public:
    /**
     * @param readout One entry per qubit; empty means error-free readout.
     */
    explicit ShotSampler(std::vector<ReadoutError> readout = {});

    /**
     * Sample `shots` outcomes from an ideal probability vector,
     * applying the readout channel to every sampled bitstring.
     * @param probs Ideal outcome distribution (size = 2^n).
     * @param num_qubits Register width (for readout flips).
     */
    Counts sample(const std::vector<double> &probs, int num_qubits,
                  std::size_t shots, Rng &rng) const;

    /**
     * Convenience overload sampling directly from a statevector.
     * Reuses the state's cached CDF (Statevector::
     * cumulativeProbabilities), so repeated sampling of an unchanged
     * state skips both the probability copy and the CDF rebuild.
     */
    Counts sample(const Statevector &state, std::size_t shots,
                  Rng &rng) const;

    /**
     * Sample a batch of independent distributions, fanning the work out
     * over the global ParallelExecutor.
     *
     * Each distribution receives its own RNG sub-stream split from
     * `rng` before dispatch (`rng` advances once per distribution, as
     * if split() were called in index order), so the result is a pure
     * function of the inputs and the rng state — bit-identical for
     * every thread count.
     */
    std::vector<Counts>
    sampleBatch(const std::vector<std::vector<double>> &distributions,
                int num_qubits, std::size_t shots, Rng &rng) const;

    const std::vector<ReadoutError> &readout() const { return readout_; }

    /**
     * How many shots' draws the AVX2 loop takes ahead of their searches
     * (DESIGN.md §17). It never draws past a call's last shot, so the
     * depth moves no draw.
     */
    static constexpr std::size_t kDrawAheadShots = 32;

  private:
    Counts sampleFromCdf(const std::vector<double> &cdf, int num_qubits,
                         std::size_t shots, Rng &rng) const;

    std::vector<ReadoutError> readout_;
};

/** Total number of shots recorded in a counts histogram. */
std::uint64_t totalShots(const Counts &counts);

/** Normalize counts to an empirical probability vector of size 2^n. */
std::vector<double> countsToProbabilities(const Counts &counts,
                                          int num_qubits);

/**
 * <Z_mask> estimated from counts: average parity of the masked bits
 * (+1 for even, -1 for odd).
 */
double countsExpectationZMask(const Counts &counts, std::uint64_t mask);

} // namespace qismet

#endif // QISMET_SIM_SHOT_SAMPLER_HPP
