#include "pauli/expectation.hpp"

#include <bit>
#include <stdexcept>

#include "common/block_partition.hpp"
#include "pauli/expectation_plan.hpp"

namespace qismet {

namespace {

/**
 * Per-parity phase constants of one Pauli string: P|i> = phase(i) *
 * |i ^ xmask> with phase(i) = (-1)^popcount(i & zmask) · i^nY. The
 * i^nY factor is fixed per string, so the two possible values are
 * computed once — through the same op sequence the old per-amplitude
 * pauliPhase() switch executed, keeping every stored component
 * (signed zeros included) bit-identical — and the per-basis-state work
 * reduces to a parity-indexed select.
 */
struct PhasePair
{
    Complex plus{1.0, 0.0};
    Complex minus{-1.0, 0.0};

    explicit PhasePair(int n_y)
    {
        switch (n_y & 3) {
          case 0:
            break;
          case 1:
            plus *= Complex(0.0, 1.0);
            minus *= Complex(0.0, 1.0);
            break;
          case 2:
            plus *= Complex(-1.0, 0.0);
            minus *= Complex(-1.0, 0.0);
            break;
          case 3:
            plus *= Complex(0.0, -1.0);
            minus *= Complex(0.0, -1.0);
            break;
        }
    }

    Complex select(std::uint64_t i, std::uint64_t zmask) const
    {
        return (std::popcount(i & zmask) & 1) ? minus : plus;
    }
};

} // namespace

double
expectation(const Statevector &state, const PauliString &pauli)
{
    if (pauli.numQubits() != state.numQubits())
        throw std::invalid_argument("expectation: width mismatch");

    const std::uint64_t xmask = pauli.xMask();
    const std::uint64_t zmask = pauli.zMask();
    const PhasePair phase(pauli.countY());
    const auto &amps = state.amplitudes();

    // <ψ|P|ψ> = Σ_i conj(ψ[i ^ xmask]) phase(i) ψ[i], summed as a
    // deterministic ordered block reduction (bit-identical at every
    // thread count; serial legacy order below the parallel threshold).
    return orderedBlockReduceComplex(
               amps.size(), amps.size(),
               [&](std::size_t lo, std::size_t hi) {
                   Complex acc(0.0, 0.0);
                   for (std::uint64_t i = lo; i < hi; ++i)
                       acc += std::conj(amps[i ^ xmask]) *
                              phase.select(i, zmask) * amps[i];
                   return acc;
               })
        .real();
}

double
expectation(const Statevector &state, const PauliSum &hamiltonian)
{
    // Compile and evaluate through the batched single-sweep engine.
    // Callers that evaluate the same sum repeatedly should hold an
    // ExpectationPlan instead of paying the compile step per call;
    // EnergyEstimator does exactly that.
    return ExpectationPlan(hamiltonian).evaluate(state);
}

double
expectation(const DensityMatrix &rho, const PauliString &pauli)
{
    if (pauli.numQubits() != rho.numQubits())
        throw std::invalid_argument("expectation: width mismatch");

    const std::uint64_t xmask = pauli.xMask();
    const std::uint64_t zmask = pauli.zMask();
    const PhasePair phase(pauli.countY());
    const std::size_t dim = rho.dim();

    // Tr(ρ P) = Σ_i (ρ P)[i, i] = Σ_i ρ[i, i ^ xmask] * phase(i)
    // where P[i ^ xmask, i] = phase(i).
    Complex acc(0.0, 0.0);
    for (std::uint64_t i = 0; i < dim; ++i)
        acc += rho.element(i, i ^ xmask) * phase.select(i, zmask);
    return acc.real();
}

double
expectation(const DensityMatrix &rho, const PauliSum &hamiltonian)
{
    return ExpectationPlan(hamiltonian).evaluate(rho);
}

double
expectationFromCounts(const Counts &counts, const PauliString &pauli)
{
    if (pauli.isIdentity())
        return 1.0;
    return countsExpectationZMask(counts, pauli.supportMask());
}

} // namespace qismet
