/**
 * @file
 * Compiled expectation plans: the lane-per-term Pauli-sum evaluator.
 *
 * The legacy path walks the full 2^n amplitude array once **per term**
 * of a PauliSum. A plan compiles the sum once into a lane layout and
 * then evaluates every term in **one** pass over the amplitudes
 * (kern::pauliLaneSums, scalar and AVX2). Every Pauli phase i^nY is ±1
 * or ±i, so a term's addend at basis state i is ±D or ±E of its xmask
 * group — the real and imaginary parts of conj(ψ[i^x])·ψ[i], formed
 * once per group — and each term owns one accumulator lane. The
 * Hamiltonian is loop-invariant across optimizer iterations, so
 * EnergyEstimator compiles one plan per run and reuses it for every
 * estimate.
 *
 * Determinism contract (DESIGN.md §16): plan evaluation is
 * bit-identical to the legacy term-by-term path. ±D and ±E equal the
 * legacy complex product's real part up to the sign of an exact zero,
 * and a per-term sum that starts at +0.0 absorbs that difference; each
 * lane adds in ascending i, over the same fixed 16-block partition and
 * serial block fold above the intra-state parallel threshold, and the
 * coefficient fold runs in original term order. The term-by-term fold
 * over expectation(state, PauliString) is not a runtime path; the
 * differential battery (tests/pauli/test_expectation_batched.cpp) keeps
 * it as the reference the plan is compared against.
 */

#ifndef QISMET_PAULI_EXPECTATION_PLAN_HPP
#define QISMET_PAULI_EXPECTATION_PLAN_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pauli/grouping.hpp"
#include "pauli/pauli_sum.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace qismet {

/**
 * Always true: the batched engine has no off switch. Kept only for the
 * host-context line of the end-to-end benchmark (e2ebench/src/main.cpp),
 * which prints it.
 */
inline bool
batchedExpectationEnabled()
{
    return true;
}

/** Compiled form of one PauliSum, reusable across iterations. */
class ExpectationPlan
{
  public:
    /**
     * How one term is read off its group: its addend at basis state i
     * is ±E_g(i) when `imaginary` (i^nY = ±i), else ±D_g(i) (i^nY =
     * ±1), negated when `negated` XOR parity(i & zmask).
     */
    struct TermLane
    {
        std::size_t group = 0;
        bool imaginary = false;
        bool negated = false;
        std::uint64_t zmask = 0;
    };

    /** Compile `hamiltonian` as-is (no simplification is applied). */
    explicit ExpectationPlan(const PauliSum &hamiltonian);

    int numQubits() const { return numQubits_; }
    std::size_t numTerms() const { return coefficients_.size(); }
    std::size_t numGroups() const { return groupXmasks_.size(); }
    /** The xmask of each group of terms sharing one, first-seen order. */
    const std::vector<std::uint64_t> &groupXmasks() const
    {
        return groupXmasks_;
    }
    /** One lane per term, in original term order. */
    const std::vector<TermLane> &termLanes() const { return termLanes_; }
    /**
     * The kernel's view of the lane layout (kern::pauliLaneSums): lane
     * t is term t, padded to a multiple of 4 lanes.
     */
    kern::PauliLanes lanes() const;
    /** Coefficients in original term order (the final fold order). */
    const std::vector<double> &coefficients() const
    {
        return coefficients_;
    }

    /**
     * Measurement-group sampling layout (qubit-wise-commuting groups,
     * identity excluded), compiled once with the plan: per group the
     * basis, the member terms' support masks and coefficients — the
     * constants the sampling estimator reads per shot batch.
     */
    const std::vector<MeasurementGroup> &measurementGroups() const
    {
        return measurementGroups_;
    }
    const std::vector<std::uint64_t> &samplingMasks(std::size_t g) const
    {
        return samplingMasks_[g];
    }
    const std::vector<double> &samplingCoefficients(std::size_t g) const
    {
        return samplingCoefficients_[g];
    }

    /**
     * Per-term <P_t> sums into out[numTerms()], bit-identical to the
     * legacy expectation(state, terms[t].pauli) for every t (identity
     * terms included — their lane sums the legacy norm² walk). A warm
     * call on a state below the parallel threshold allocates nothing.
     * @throws std::invalid_argument on a width mismatch.
     */
    void termExpectations(const Statevector &state, double *out) const;

    /** Tr(ρ P_t) per term: serial, one pass over ρ's band per term. */
    void termExpectations(const DensityMatrix &rho, double *out) const;

    /** Σ_t c_t <P_t>, folded in original term order (== legacy sum). */
    double evaluate(const Statevector &state) const;
    double evaluate(const DensityMatrix &rho) const;

  private:
    int numQubits_ = 0;
    std::vector<double> coefficients_;
    std::vector<std::uint64_t> groupXmasks_;
    std::vector<TermLane> termLanes_;
    /** The rest of the kernel's layout (kern::PauliLanes), padded. */
    std::vector<std::int32_t> laneBase_;
    std::vector<std::uint64_t> laneZmasks_;
    std::vector<std::uint64_t> laneLowSigns_;
    std::vector<MeasurementGroup> measurementGroups_;
    std::vector<std::vector<std::uint64_t>> samplingMasks_;
    std::vector<std::vector<double>> samplingCoefficients_;
};

/** Compile a plan behind a shared_ptr. */
std::shared_ptr<const ExpectationPlan>
compileExpectationPlan(const PauliSum &hamiltonian);

} // namespace qismet

#endif // QISMET_PAULI_EXPECTATION_PLAN_HPP
