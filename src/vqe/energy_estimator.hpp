/**
 * @file
 * Noisy VQE objective-function (energy) estimation.
 *
 * One estimator owns a Hamiltonian, an ansatz circuit and a machine's
 * static noise model, and produces the machine-style energy estimate
 * E_m(θ, τ) for a parameter vector θ under transient intensity τ.
 *
 * Noise composition (DESIGN.md §5.2):
 *   τ_eff  = τ · κ(θ),  κ(θ) = 2 · (mean excited-state population)
 *   f_eff  = clamp(f_static · (1 - τ_eff), 0, 1)
 *   <H>_noisy = f_eff · (<H>_ideal(θ) - <H>_mixed) + <H>_mixed
 * i.e. the static survival factor and the transient intensity both pull
 * the estimate toward the maximally mixed value, exactly the
 * "normalized to the magnitude of the VQA estimations" composition of
 * paper Section 6.2. Shot noise and SPAM are then layered on by the
 * sampling path (exact Pauli expectations → noisy distribution →
 * finite-shot counts → readout errors → optional tensored mitigation),
 * or approximated analytically by the fast path.
 *
 * The κ(θ) factor implements paper Section 3.2(c): transient T1/TLS
 * events damp *excited-state population*, so "a circuit that carries a
 * superposition of states with a high proportion of 0s is less
 * affected". κ is 1 at half excitation, below 1 for 0-heavy states.
 * This state dependence is what lets a transient *reorder* candidate
 * configurations (paper Fig. 6.b) instead of merely rescaling them: a
 * corrupted gradient systematically favors low-excitation states, and
 * that false attractor is exactly how the baseline tuner gets derailed.
 *
 * Execution: the constructor compiles the ansatz and one basis-change
 * circuit per measurement group (sim/compiled_circuit.hpp) and the
 * simplified Hamiltonian into one ExpectationPlan
 * (pauli/expectation_plan.hpp). Every estimate runs exactly those.
 *
 * An estimate is two halves. prepare(θ) is the noiseless half, a pure
 * function of θ: the prepared state's κ(θ) plus the per-term
 * expectations (Analytic), each group's basis-rotated distribution
 * (Sampling) or the exact energy (Ideal). finish() layers τ, the
 * survival factor and the shot noise on top. estimate() is
 * finish(prepare(θ), ...); JobExecutor calls the halves itself so that
 * a QISMET reference rerun or retry reuses the point its previous job
 * prepared.
 */

#ifndef QISMET_VQE_ENERGY_ESTIMATOR_HPP
#define QISMET_VQE_ENERGY_ESTIMATOR_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "mitigation/measurement_mitigation.hpp"
#include "noise/noise_model.hpp"
#include "pauli/expectation_plan.hpp"
#include "pauli/pauli_sum.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/statevector.hpp"

namespace qismet {

/** How the estimator turns exact expectations into machine estimates. */
enum class EstimatorMode
{
    /** Exact statevector expectation, no noise at all. */
    Ideal,
    /**
     * Noise composition + Gaussian shot noise (no explicit sampling).
     * Fast: used by the long 2000-iteration parameter sweeps.
     */
    Analytic,
    /**
     * Full pipeline: per measurement-group sampling with readout errors
     * and optional tensored measurement mitigation.
     */
    Sampling,
};

/** Estimator configuration. */
struct EstimatorConfig
{
    EstimatorMode mode = EstimatorMode::Analytic;
    /** Shots per measurement group. */
    std::size_t shots = 4096;
    /** Apply tensored measurement-error mitigation (Sampling mode). */
    bool mitigateMeasurement = true;
};

/**
 * The noiseless half of one estimate at θ (DESIGN.md §5 item 3). Which
 * field is filled depends on the estimator's mode; the others stay
 * empty. Two estimates at bit-equal θ share it bit for bit.
 */
struct PreparedPoint
{
    /** κ(θ), the prepared state's transient sensitivity (not Ideal). */
    double sensitivity = 0.0;
    /** Ideal: the exact energy <H>(θ). */
    double idealEnergy = 0.0;
    /** Analytic: <P_k>(θ) per simplified Hamiltonian term, in order. */
    std::vector<double> termExpectations;
    /**
     * Sampling: each measurement group's outcome distribution after its
     * basis change and before depolarization, in group order.
     */
    std::vector<std::vector<double>> groupProbabilities;
};

/** Produces machine-style energy estimates for one VQE problem. */
class EnergyEstimator
{
  public:
    /**
     * @param hamiltonian Observable (width must match the ansatz).
     * @param ansatz_circuit Parameterized ansatz circuit.
     * @param noise Static machine noise (ignored in Ideal mode).
     * @param config Estimation mode and shot budget.
     */
    EnergyEstimator(PauliSum hamiltonian, Circuit ansatz_circuit,
                    std::optional<StaticNoiseModel> noise,
                    EstimatorConfig config);

    /** Exact noise-free <H>(θ). */
    double idealEnergy(const std::vector<double> &theta) const;

    /**
     * Machine-style estimate of <H>(θ) under transient intensity tau:
     * finish(prepare(theta), tau, rng, shot_fraction). Each call models
     * one execution of the iteration's circuits.
     */
    double estimate(const std::vector<double> &theta, double tau,
                    Rng &rng, double shot_fraction = 1.0) const
    {
        return finish(prepare(theta), tau, rng, shot_fraction);
    }

    /** The noiseless half of an estimate at θ. Draws no randomness. */
    PreparedPoint prepare(const std::vector<double> &theta) const;

    /**
     * prepare(θ) into `point`, reusing its buffers: a warm Analytic-mode
     * call on a state below the parallel threshold allocates nothing.
     * `point` must be empty or come from this estimator.
     */
    void prepare(const std::vector<double> &theta,
                 PreparedPoint &point) const;

    /**
     * The noisy half of an estimate: the survival factor at τ·κ(θ),
     * then Gaussian shot noise (Analytic) or depolarization, sampling
     * and mitigation per group (Sampling). Ideal mode returns the exact
     * energy and draws nothing.
     *
     * @param point This estimator's prepare() of θ.
     * @param shot_fraction Fraction of the configured shots actually
     *        retained, in (0, 1] — partial-result jobs deliver fewer
     *        shots, inflating the shot-noise variance accordingly
     *        (Analytic mode) or sampling fewer counts (Sampling mode).
     */
    double finish(const PreparedPoint &point, double tau, Rng &rng,
                  double shot_fraction = 1.0) const;

    /** Expectation in the maximally mixed state (identity coefficient). */
    double mixedEnergy() const { return mixedEnergy_; }

    /**
     * State-dependent transient sensitivity κ(θ) = 2 x̄ where x̄ is the
     * mean per-qubit excited-state population of the prepared state
     * (paper Section 3.2(c)).
     */
    static double transientSensitivity(const Statevector &state);

    /** Static survival factor of the ansatz circuit. */
    double staticSurvival() const { return staticSurvival_; }

    /** Number of measurement groups (circuits per energy evaluation). */
    std::size_t numGroups() const
    {
        return plan_->measurementGroups().size();
    }

    /** The expectation plan the constructor compiled (tests read its
     *  sampling layout). */
    std::shared_ptr<const ExpectationPlan> plan() const { return plan_; }

    const PauliSum &hamiltonian() const { return hamiltonian_; }
    const Circuit &ansatzCircuit() const { return ansatz_; }
    const EstimatorConfig &config() const { return config_; }

  private:
    double effectiveSurvival(double tau, double sensitivity) const;
    std::size_t effectiveShots(double shot_fraction) const;
    double finishAnalytic(const PreparedPoint &point, double tau,
                          Rng &rng, double shot_fraction) const;
    double finishSampling(const PreparedPoint &point, double tau,
                          Rng &rng, double shot_fraction) const;

    PauliSum hamiltonian_;
    Circuit ansatz_;
    std::optional<StaticNoiseModel> noise_;
    EstimatorConfig config_;

    /**
     * Circuits compiled once at construction; every prepare() reuses
     * them instead of re-deriving gate matrices. The basis-change
     * circuits are parameter-free, so concurrent group threads may run
     * the same compiled instance safely.
     */
    CompiledCircuit compiledAnsatz_;
    /**
     * Compiled once per estimator — every estimate reuses the xmask
     * grouping, phase tables and sampling layout instead of re-deriving
     * them per iteration.
     */
    std::shared_ptr<const ExpectationPlan> plan_;
    /** One per measurement group, in plan_->measurementGroups() order. */
    std::vector<CompiledCircuit> compiledBasisChanges_;
    std::optional<ShotSampler> sampler_;
    std::optional<MeasurementMitigator> mitigator_;
    double mixedEnergy_ = 0.0;
    double staticSurvival_ = 1.0;
    /** Indices of the non-identity terms, ascending (finishAnalytic). */
    std::vector<std::size_t> nonIdentityTerms_;
};

} // namespace qismet

#endif // QISMET_VQE_ENERGY_ESTIMATOR_HPP
