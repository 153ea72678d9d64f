/**
 * @file
 * Expectation-value evaluation of Pauli strings and sums against the
 * three state representations the library produces: exact statevectors,
 * density matrices, and finite-shot counts.
 */

#ifndef QISMET_PAULI_EXPECTATION_HPP
#define QISMET_PAULI_EXPECTATION_HPP

#include "pauli/pauli_string.hpp"
#include "pauli/pauli_sum.hpp"
#include "sim/density_matrix.hpp"
#include "sim/shot_sampler.hpp"
#include "sim/statevector.hpp"

namespace qismet {

/** Exact <ψ|P|ψ> without materializing the Pauli matrix. */
double expectation(const Statevector &state, const PauliString &pauli);

/**
 * Exact <ψ|H|ψ>, evaluated as ExpectationPlan(H).evaluate(ψ): one
 * amplitude walk for the whole sum, bit-identical to folding
 * c_t · expectation(ψ, P_t) over the terms in order. An empty sum is
 * 0.0. Repeated evaluations of one sum should hold an ExpectationPlan
 * instead of calling this per iteration.
 */
double expectation(const Statevector &state, const PauliSum &hamiltonian);

/** Tr(ρ P) without materializing the Pauli matrix. */
double expectation(const DensityMatrix &rho, const PauliString &pauli);

/** Tr(ρ H) through an ExpectationPlan, like the statevector overload. */
double expectation(const DensityMatrix &rho, const PauliSum &hamiltonian);

/**
 * Estimate <P> from counts measured in a basis where every non-identity
 * factor of P was rotated to Z before measurement (see grouping.hpp).
 * The estimate is the average parity over the string's support.
 */
double expectationFromCounts(const Counts &counts, const PauliString &pauli);

} // namespace qismet

#endif // QISMET_PAULI_EXPECTATION_HPP
