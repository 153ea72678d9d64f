/**
 * @file
 * Density-matrix simulator with Kraus-channel noise.
 *
 * This is the library's "ground truth" noisy back-end: gates are applied
 * as unitaries ρ → UρU†, noise as CPTP maps ρ → Σ_k K_k ρ K_k†. It is
 * used by the static-noise fidelity studies (paper Fig. 4) and by tests
 * that validate the faster expectation-damping path in the VQE engine.
 */

#ifndef QISMET_SIM_DENSITY_MATRIX_HPP
#define QISMET_SIM_DENSITY_MATRIX_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/matrix.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/kraus.hpp"
#include "sim/statevector.hpp"

namespace qismet {

/** Mixed-state simulator over a fixed qubit register. */
class DensityMatrix
{
  public:
    /** Initialize to |0..0><0..0| over num_qubits qubits. */
    explicit DensityMatrix(int num_qubits);

    /** Initialize from a pure state. */
    explicit DensityMatrix(const Statevector &state);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return dim_; }

    /** Element access rho(r, c). */
    Complex element(std::size_t r, std::size_t c) const
    {
        return rho_[r * dim_ + c];
    }

    /** Reset to |0..0><0..0|. */
    void reset();

    /** Apply a gate as a unitary conjugation. */
    void applyGate(const Gate &gate, const std::vector<double> &params = {});

    /** Apply a 1-qubit channel to qubit q. */
    void applyChannel1q(int q, const KrausChannel &channel);

    /** Apply a 2-qubit channel to (q1, q0), q1 = most significant. */
    void applyChannel2q(int q1, int q0, const KrausChannel &channel);

    /**
     * Run a noiseless circuit. From kAutoCompileAmplitudes elements
     * (dim^2) up the circuit is compiled and executed through the fused
     * kernels, which agree with the gate-by-gate path to ~1e-12;
     * smaller matrices run gate by gate (applyGate).
     */
    void run(const Circuit &circuit, const std::vector<double> &params = {});

    /** Run a pre-compiled circuit (compile once, conjugate many). */
    void run(const CompiledCircuit &circuit,
             const std::vector<double> &params = {});

    /**
     * Number of times a member scratch buffer had to (re)allocate.
     * Steady-state noisy simulation reuses warm scratch, so this
     * counter stays flat across repeated channel/gate applications —
     * the perf bench asserts exactly that.
     */
    std::size_t scratchAllocCount() const { return scratchAllocs_; }

    /** Trace of the density matrix (should stay 1). */
    double trace() const;

    /** Purity Tr(ρ²) ∈ (0, 1]. */
    double purity() const;

    /** Diagonal (measurement probabilities in the computational basis). */
    std::vector<double> probabilities() const;

    /** <ψ|ρ|ψ> against a pure reference state. */
    double fidelity(const Statevector &reference) const;

    /** Expectation of a Hermitian observable Tr(ρ O). */
    double expectation(const Matrix &observable) const;

  private:
    /**
     * Sparse row form of one Kraus operator (every gate-level operator
     * here is at most 4x4, and noise operators are near-Pauli, so rows
     * hold 1-2 nonzeros). `cval` caches the conjugates for the K† side.
     */
    struct SparseKraus
    {
        int nnz[4] = {0, 0, 0, 0};
        int col[4][4] = {};
        Complex val[4][4];
        Complex cval[4][4];
    };

    void checkQubit(int q) const;
    /** ρ → Mρ restricted to qubit q (M is 2x2 row-major). */
    void applyLeft1q(int q, const Complex *m, std::vector<Complex> &rho) const;
    /** ρ → ρM restricted to qubit q (M is 2x2 row-major). */
    void applyRight1q(int q, const Complex *m,
                      std::vector<Complex> &rho) const;
    /** ρ → Mρ restricted to (q1, q0) (M 4x4 row-major, q1 most signif.). */
    void applyLeft2q(int q1, int q0, const Complex *m,
                     std::vector<Complex> &rho) const;
    /** ρ → ρM restricted to (q1, q0). */
    void applyRight2q(int q1, int q0, const Complex *m,
                      std::vector<Complex> &rho) const;
    /** ρ → D ρ D† for a diagonal op over `mask` (compiled Diag kernel). */
    void applyDiagConjugation(std::uint64_t mask, const Complex *table);
    /** ρ → Σ_k K_k ρ K_k† for 1- or 2-qubit Kraus sets, in place. */
    void applyKrausSum(const std::vector<int> &qubits,
                       const KrausChannel &channel);
    /** Lower the channel's operators into sparseOps_ (w = 2 or 4). */
    void lowerKrausOperators(const KrausChannel &channel, int w);

    int numQubits_;
    std::size_t dim_;
    std::vector<Complex> rho_; // row-major dim_ x dim_
    /** Member scratch, reused across calls (see scratchAllocCount). */
    std::vector<SparseKraus> sparseOps_;
    std::vector<Complex> bindPool_;
    std::vector<Complex> diagPhase_;
    std::size_t scratchAllocs_ = 0;
};

} // namespace qismet

#endif // QISMET_SIM_DENSITY_MATRIX_HPP
