/**
 * @file
 * Real linear combinations of Pauli strings — the Hamiltonian
 * representation used throughout the VQE engine.
 */

#ifndef QISMET_PAULI_PAULI_SUM_HPP
#define QISMET_PAULI_PAULI_SUM_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "pauli/pauli_string.hpp"

namespace qismet {

/** One weighted term of a Hamiltonian. */
struct PauliTerm
{
    double coefficient = 0.0;
    PauliString pauli;

    PauliTerm(double coeff, PauliString p)
        : coefficient(coeff), pauli(std::move(p))
    {
    }
};

/**
 * Hermitian operator H = Σ_k c_k P_k with real coefficients c_k.
 */
class PauliSum
{
  public:
    /** Empty (zero) operator over num_qubits qubits. */
    explicit PauliSum(int num_qubits);

    int numQubits() const { return numQubits_; }
    const std::vector<PauliTerm> &terms() const { return terms_; }
    std::size_t numTerms() const { return terms_.size(); }

    /** Append coefficient * pauli. */
    void add(double coefficient, PauliString pauli);

    /** Append coefficient * fromLabel(label). */
    void add(double coefficient, const std::string &label);

    /**
     * Merge duplicate strings and drop terms with |coefficient| <= tol.
     * Keeps first-seen term order for determinism.
     */
    void simplify(double tol = 1e-12);

    /** Sum of |coefficients| (an easy operator-norm upper bound). */
    double l1Norm() const;

    /** Coefficient of the all-identity term (energy offset). */
    double identityCoefficient() const;

    /** Dense 2^n x 2^n Hermitian matrix. */
    Matrix toMatrix() const;

    PauliSum operator+(const PauliSum &other) const;
    PauliSum operator*(double scalar) const;

    /** Human-readable listing, e.g. "-1.0 * ZZIIII + 0.5 * XIIIII". */
    std::string toString() const;

  private:
    int numQubits_;
    std::vector<PauliTerm> terms_;
};

} // namespace qismet

#endif // QISMET_PAULI_PAULI_SUM_HPP
