/**
 * @file
 * Dense statevector simulator.
 *
 * Qubit ordering is little-endian (Qiskit convention): qubit q maps to
 * bit q of the basis-state index. Circuits here are at most ~20 qubits
 * (the paper's applications are 6-qubit), so a flat dense amplitude
 * array is the right representation. Compiled ops and the reductions
 * hand that one interleaved array straight to sim/kernels.hpp.
 */

#ifndef QISMET_SIM_STATEVECTOR_HPP
#define QISMET_SIM_STATEVECTOR_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "sim/compiled_circuit.hpp"

namespace qismet {

/** Pure-state simulator over a fixed qubit register. */
class Statevector
{
  public:
    /** Initialize to |0...0> over num_qubits qubits. */
    explicit Statevector(int num_qubits);

    /** Initialize from raw amplitudes (size must be a power of two). */
    explicit Statevector(std::vector<Complex> amplitudes);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }
    const std::vector<Complex> &amplitudes() const { return amps_; }

    /** Reset to |0...0>. */
    void reset();

    /** Apply one gate (params needed if the gate is parameterized). */
    void applyGate(const Gate &gate, const std::vector<double> &params = {});

    /** Apply an arbitrary 2x2 unitary to qubit q. */
    void apply1q(int q, const Matrix &u);

    /**
     * Apply an arbitrary 4x4 unitary to (q1, q0) where q1 indexes the
     * most-significant bit of the 4x4 local space (matching
     * Gate::matrix's [qubits[0], qubits[1]] ordering with q1 = qubits[0]).
     */
    void apply2q(int q1, int q0, const Matrix &u);

    /**
     * Run a whole circuit. From kAutoCompileAmplitudes amplitudes up the
     * circuit is compiled and executed through the fused kernels, which
     * agree with the gate-by-gate path to ~1e-12; smaller states run
     * gate by gate (applyGate), where a one-shot compile costs more
     * than it saves.
     */
    void run(const Circuit &circuit, const std::vector<double> &params = {});

    /**
     * Run a pre-compiled circuit. This is the hot path: callers that
     * execute the same circuit many times (the VQE estimator) compile
     * once and reuse. Parameter-dependent matrices are bound into this
     * statevector's own scratch pool, so distinct Statevector instances
     * may run the same CompiledCircuit concurrently.
     */
    void run(const CompiledCircuit &circuit,
             const std::vector<double> &params = {});

    /** Probability of the basis state with the given index. */
    double probability(std::uint64_t basis_state) const;

    /** Full probability vector (|amplitude|^2). */
    std::vector<double> probabilities() const;

    /** <this|other>; states must have equal width. */
    Complex innerProduct(const Statevector &other) const;

    /** State fidelity |<this|other>|^2. */
    double fidelity(const Statevector &other) const;

    /** 2-norm of the amplitude vector (should stay 1 under unitaries). */
    double norm() const;

    /** Renormalize to unit norm (guards numeric drift in long runs). */
    void normalize();

    /**
     * Sample shot basis-state indices from the current distribution.
     * Reuses the cached CDF (see cumulativeProbabilities()), so
     * repeated sampling of an unchanged state pays the CDF build once.
     * @param rng Source of randomness.
     * @param shots Number of samples.
     */
    std::vector<std::uint64_t> sample(Rng &rng, std::size_t shots) const;

    /**
     * Cumulative probability vector (prefix sums of |amplitude|^2),
     * built lazily and cached until the next state mutation. Shared
     * with ShotSampler so neither rebuilds the CDF per call.
     *
     * The cache makes concurrent first calls on the *same* object a
     * data race; concurrent samplers each run their own copy of the
     * state (as the energy estimator already does).
     */
    const std::vector<double> &cumulativeProbabilities() const;

    /** <Z_mask> where mask selects the qubits whose parities multiply. */
    double expectationZMask(std::uint64_t mask) const;

  private:
    void checkQubit(int q) const;
    /** Drop caches that depend on the amplitudes (the sampling CDF). */
    void invalidateCache() { cdfValid_ = false; }

    int numQubits_;
    std::vector<Complex> amps_;
    /** Scratch for CompiledCircuit::bind (reused across runs). */
    std::vector<Complex> bindPool_;
    /** Lazily built sampling CDF; valid only while cdfValid_. */
    mutable std::vector<double> cdf_;
    mutable bool cdfValid_ = false;
};

} // namespace qismet

#endif // QISMET_SIM_STATEVECTOR_HPP
