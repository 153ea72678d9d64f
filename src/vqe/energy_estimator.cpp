#include "vqe/energy_estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "pauli/grouping.hpp"
#include "sim/statevector.hpp"

namespace qismet {

EnergyEstimator::EnergyEstimator(PauliSum hamiltonian,
                                 Circuit ansatz_circuit,
                                 std::optional<StaticNoiseModel> noise,
                                 EstimatorConfig config)
    : hamiltonian_(std::move(hamiltonian)), ansatz_(std::move(ansatz_circuit)),
      noise_(std::move(noise)), config_(config), compiledAnsatz_(ansatz_)
{
    if (hamiltonian_.numQubits() != ansatz_.numQubits())
        throw std::invalid_argument("EnergyEstimator: width mismatch");
    if (config_.shots == 0)
        throw std::invalid_argument("EnergyEstimator: zero shots");
    if (config_.mode != EstimatorMode::Ideal && !noise_)
        throw std::invalid_argument(
            "EnergyEstimator: noisy mode requires a noise model");

    hamiltonian_.simplify();
    mixedEnergy_ = hamiltonian_.identityCoefficient();
    for (std::size_t k = 0; k < hamiltonian_.terms().size(); ++k)
        if (!hamiltonian_.terms()[k].pauli.isIdentity())
            nonIdentityTerms_.push_back(k);

    plan_ = compileExpectationPlan(hamiltonian_);

    // Compile the per-iteration circuits once; thousands of prepare()
    // calls then skip both per-gate matrix derivation and the fusion
    // pass itself.
    const auto &groups = plan_->measurementGroups();
    compiledBasisChanges_.reserve(groups.size());
    for (const auto &g : groups)
        compiledBasisChanges_.emplace_back(
            basisChangeCircuit(g, hamiltonian_.numQubits()));

    if (noise_) {
        staticSurvival_ = noise_->survivalFactor(ansatz_);
        sampler_.emplace(noise_->readoutErrors(ansatz_.numQubits()));
        if (config_.mitigateMeasurement) {
            mitigator_.emplace(ansatz_.numQubits(),
                               noise_->readoutErrors(ansatz_.numQubits()));
        }
    }
}

double
EnergyEstimator::idealEnergy(const std::vector<double> &theta) const
{
    Statevector state(ansatz_.numQubits());
    state.run(compiledAnsatz_, theta);
    return plan_->evaluate(state);
}

double
EnergyEstimator::transientSensitivity(const Statevector &state)
{
    // Mean per-qubit excited-state population, scaled so that a
    // half-excited register has sensitivity 1 (paper Section 3.2(c):
    // 0-heavy states are less affected by T1-style transients).
    const int n = state.numQubits();
    const auto &amps = state.amplitudes();
    double excited = 0.0;
    // popcount(i), stepped along with i: going from i - 1 to i clears
    // the trailing ones of i - 1 and sets one bit. (std::popcount calls
    // libgcc's __popcountdi2 on the baseline ISA the library targets.)
    int weight = 0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i != 0)
            weight += 1 - std::countr_one(i - 1);
        const double p = std::norm(amps[i]);
        if (p == 0.0)
            continue;
        excited += p * static_cast<double>(weight);
    }
    return 2.0 * excited / static_cast<double>(n);
}

double
EnergyEstimator::effectiveSurvival(double tau, double sensitivity) const
{
    return std::clamp(staticSurvival_ * (1.0 - tau * sensitivity), 0.0,
                      1.0);
}

std::size_t
EnergyEstimator::effectiveShots(double shot_fraction) const
{
    const double scaled =
        std::round(shot_fraction * static_cast<double>(config_.shots));
    return std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
}

namespace {

/**
 * This thread's state for prepare(), reset rather than reallocated per
 * call; its bind pool stays warm with it. One per thread, because
 * concurrent points of a job prepare on pool threads.
 */
Statevector &
preparedState(int num_qubits)
{
    thread_local std::optional<Statevector> state;
    if (!state || state->numQubits() != num_qubits)
        state.emplace(num_qubits);
    else
        state->reset();
    return *state;
}

} // namespace

PreparedPoint
EnergyEstimator::prepare(const std::vector<double> &theta) const
{
    PreparedPoint point;
    prepare(theta, point);
    return point;
}

void
EnergyEstimator::prepare(const std::vector<double> &theta,
                         PreparedPoint &point) const
{
    if (config_.mode == EstimatorMode::Ideal) {
        point.idealEnergy = idealEnergy(theta);
        return;
    }

    Statevector &state = preparedState(ansatz_.numQubits());
    state.run(compiledAnsatz_, theta);
    point.sensitivity = transientSensitivity(state);

    if (config_.mode == EstimatorMode::Analytic) {
        // The plan sweeps once and writes each term's expectation into
        // its own slot (the identity term's slot holds the state's
        // norm²); finishAnalytic folds them in term order.
        point.termExpectations.resize(hamiltonian_.terms().size());
        plan_->termExpectations(state, point.termExpectations.data());
        return;
    }

    // Rotate into each group's measurement basis. The basis changes are
    // independent of one another and draw no randomness, so they fan
    // out in parallel, each writing its own slot.
    point.groupProbabilities.resize(compiledBasisChanges_.size());
    ParallelExecutor::global().parallelFor(
        compiledBasisChanges_.size(), [&](std::size_t gi) {
            Statevector rotated = state;
            rotated.run(compiledBasisChanges_[gi]);
            point.groupProbabilities[gi] = rotated.probabilities();
        });
}

double
EnergyEstimator::finish(const PreparedPoint &point, double tau, Rng &rng,
                        double shot_fraction) const
{
    if (!(shot_fraction > 0.0 && shot_fraction <= 1.0))
        throw std::invalid_argument(
            "EnergyEstimator: shot fraction must lie in (0, 1]");
    switch (config_.mode) {
      case EstimatorMode::Ideal:
        return point.idealEnergy;
      case EstimatorMode::Analytic:
        return finishAnalytic(point, tau, rng, shot_fraction);
      case EstimatorMode::Sampling:
        return finishSampling(point, tau, rng, shot_fraction);
    }
    throw std::logic_error("EnergyEstimator::finish: bad mode");
}

double
EnergyEstimator::finishAnalytic(const PreparedPoint &point, double tau,
                                Rng &rng, double shot_fraction) const
{
    const auto &terms = hamiltonian_.terms();
    if (point.termExpectations.size() != terms.size())
        throw std::invalid_argument(
            "EnergyEstimator::finish: point not prepared by this "
            "Analytic-mode estimator");
    const double f = effectiveSurvival(tau, point.sensitivity);

    // Damped expectation plus a Gaussian shot-noise term whose variance
    // matches the per-term sampling variance Σ_k c_k² (1 - <P_k>²)/shots
    // (terms measured in the same group share shots; covariances between
    // terms are neglected, which tests show is adequate for our
    // Hamiltonians). The fold stays serial in term order and skips the
    // identity term, keeping the sum bit-identical for every thread
    // count.
    //
    // Partial-result jobs deliver fewer shots; the shot-noise variance
    // scales inversely with the retained count.
    const double shots_eff =
        static_cast<double>(effectiveShots(shot_fraction));
    double e = mixedEnergy_;
    double var = 0.0;
    for (const std::size_t k : nonIdentityTerms_) {
        const auto &t = terms[k];
        const double p_noisy = f * point.termExpectations[k];
        e += t.coefficient * p_noisy;
        var += t.coefficient * t.coefficient * (1.0 - p_noisy * p_noisy) /
               shots_eff;
    }
    return e + rng.normal(0.0, std::sqrt(var));
}

double
EnergyEstimator::finishSampling(const PreparedPoint &point, double tau,
                                Rng &rng, double shot_fraction) const
{
    const std::size_t num_groups = compiledBasisChanges_.size();
    if (point.groupProbabilities.size() != num_groups)
        throw std::invalid_argument(
            "EnergyEstimator::finish: point not prepared by this "
            "Sampling-mode estimator");
    const std::size_t shots_eff = effectiveShots(shot_fraction);
    const int n = ansatz_.numQubits();
    const std::size_t dim = std::size_t{1} << n;
    const double uniform = 1.0 / static_cast<double>(dim);
    const double f = effectiveSurvival(tau, point.sensitivity);

    // Measurement groups are independent circuits of the same job, so
    // they fan out in parallel. Each group gets its own RNG sub-stream,
    // split from the caller's stream in group order *before* dispatch,
    // and the group energies are folded serially in group order — both
    // are required for thread-count-invariant results.
    std::vector<Rng> groupRngs;
    groupRngs.reserve(num_groups);
    for (std::size_t gi = 0; gi < num_groups; ++gi)
        groupRngs.push_back(rng.split());

    std::vector<double> groupEnergies(num_groups, 0.0);
    ParallelExecutor::global().parallelFor(
        num_groups, [&](std::size_t gi) {
            // Depolarize the outcome distribution by the survival
            // factor, then sample through the readout channel.
            std::vector<double> probs = point.groupProbabilities[gi];
            for (auto &p : probs)
                p = f * p + (1.0 - f) * uniform;

            const Counts counts =
                sampler_->sample(probs, n, shots_eff, groupRngs[gi]);

            std::vector<double> est_probs;
            if (mitigator_) {
                est_probs = MeasurementMitigator::clipToPhysical(
                    mitigator_->mitigateCounts(counts));
            } else {
                est_probs = countsToProbabilities(counts, n);
            }

            // Every term in the group is diagonal after the basis
            // change: its value is the average parity over its support,
            // read from the plan's pre-flattened support-mask and
            // coefficient tables.
            const auto &masks = plan_->samplingMasks(gi);
            const auto &coeffs = plan_->samplingCoefficients(gi);
            double e_group = 0.0;
            for (std::size_t k = 0; k < masks.size(); ++k) {
                double parity_avg = 0.0;
                for (std::size_t b = 0; b < dim; ++b) {
                    const int parity = std::popcount(b & masks[k]) & 1;
                    parity_avg += (parity ? -1.0 : 1.0) * est_probs[b];
                }
                e_group += coeffs[k] * parity_avg;
            }
            groupEnergies[gi] = e_group;
        });

    double e = mixedEnergy_;
    for (double e_group : groupEnergies)
        e += e_group;
    return e;
}

} // namespace qismet
