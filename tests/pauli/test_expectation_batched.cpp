/**
 * @file
 * Differential battery for the batched single-sweep expectation
 * engine: it must agree **bit for bit** (DESIGN.md §16) with the
 * reference, a term-by-term fold of the per-string
 * expectation(state, PauliString) — on random states and sums with
 * forced xmask collisions, with SIMD on and off, serial and blocked, at
 * 1/2/4/8 threads, for Statevector and DensityMatrix, through the
 * EnergyEstimator paths, and on cache hits vs misses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ansatz/real_amplitudes.hpp"
#include "common/block_partition.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "pauli/expectation.hpp"
#include "pauli/expectation_plan.hpp"
#include "vqe/energy_estimator.hpp"

namespace qismet {
namespace {

/** Restore the effective SIMD switch on scope exit. */
class SimdGuard
{
  public:
    SimdGuard() : saved_(simdEnabled()) {}
    ~SimdGuard() { setSimdEnabled(saved_); }

  private:
    bool saved_;
};

/** Restore the default parallel threshold on scope exit. */
class ThresholdGuard
{
  public:
    ~ThresholdGuard() { setIntraStateParallelThreshold(0); }
};

/** Restore the global executor's thread count on scope exit. */
class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::global().setThreads(saved_); }

  private:
    std::size_t saved_;
};

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

Statevector
randomState(int num_qubits, Rng &rng)
{
    std::vector<Complex> amps(std::size_t{1} << num_qubits);
    for (auto &a : amps)
        a = Complex(rng.normal(), rng.normal());
    Statevector st(std::move(amps));
    st.normalize();
    return st;
}

/**
 * Random sum biased toward xmask collisions: Z-type terms (all share
 * xmask 0), XX/YY pairs on the same qubit pair, fully random strings,
 * and an identity term.
 */
PauliSum
collidingSum(int num_qubits, int num_terms, Rng &rng)
{
    const char ops[] = {'I', 'X', 'Y', 'Z'};
    const auto n = static_cast<std::size_t>(num_qubits);
    PauliSum h(num_qubits);
    h.add(rng.normal(), std::string(n, 'I'));
    for (int t = 1; t < num_terms; ++t) {
        std::string label(n, 'I');
        switch (rng.uniformInt(4)) {
          case 0: // Z-type: xmask 0
            for (auto &c : label)
                if (rng.uniform() < 0.5)
                    c = 'Z';
            break;
          case 1: { // XX on a random pair
            const std::size_t q = rng.uniformInt(n - 1);
            label[q] = label[q + 1] = 'X';
            break;
          }
          case 2: { // YY on a random pair (same xmask as the XX case)
            const std::size_t q = rng.uniformInt(n - 1);
            label[q] = label[q + 1] = 'Y';
            break;
          }
          default:
            for (auto &c : label)
                c = ops[rng.uniformInt(4)];
            break;
        }
        h.add(rng.normal(), label);
    }
    return h;
}

/**
 * The reference: Σ_t c_t · expectation(x, P_t), folded term by term in
 * order through the per-string overload.
 */
template <typename State>
double
legacyEval(const State &x, const PauliSum &h)
{
    double e = 0.0;
    for (const PauliTerm &t : h.terms())
        e += t.coefficient * expectation(x, t.pauli);
    return e;
}

TEST(BatchedExpectation, BitIdenticalAcrossSimdAndPartitioning)
{
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(31337);

    for (int n = 2; n <= 10; ++n) {
        const Statevector st = randomState(n, rng);
        const PauliSum h = collidingSum(n, 24, rng);
        // Threshold 1 forces the 16-block partition even on tiny
        // states; 0 restores the default serial-below-1024 behavior.
        for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
            setIntraStateParallelThreshold(threshold);
            for (bool simd : {false, true}) {
                setSimdEnabled(simd);
                const double legacy = legacyEval(st, h);
                const double fast = expectation(st, h);
                EXPECT_EQ(bits(legacy), bits(fast))
                    << "n=" << n << " threshold=" << threshold
                    << " simd=" << simd << " legacy=" << legacy
                    << " batched=" << fast;
            }
        }
    }
}

TEST(BatchedExpectation, BitIdenticalAcrossThreadCounts)
{
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    GlobalThreadsGuard threads_guard;
    Rng rng(90210);

    const Statevector st = randomState(9, rng);
    const PauliSum h = collidingSum(9, 30, rng);
    setIntraStateParallelThreshold(1); // force the blocked partition

    for (bool simd : {false, true}) {
        setSimdEnabled(simd);
        ParallelExecutor::global().setThreads(1);
        const double reference = expectation(st, h);
        for (std::size_t threads : {2u, 4u, 8u}) {
            ParallelExecutor::global().setThreads(threads);
            const double value = expectation(st, h);
            EXPECT_EQ(bits(reference), bits(value))
                << "simd=" << simd << " threads=" << threads;
        }
    }
}

TEST(BatchedExpectation, DensityMatrixBitIdentical)
{
    Rng rng(555);
    for (int n = 2; n <= 6; ++n) {
        const Statevector psi = randomState(n, rng);
        const DensityMatrix rho(psi);
        const PauliSum h = collidingSum(n, 20, rng);
        const double legacy = legacyEval(rho, h);
        const double fast = expectation(rho, h);
        EXPECT_EQ(bits(legacy), bits(fast)) << "n=" << n;
    }
}

TEST(BatchedExpectation, PlanTermExpectationsMatchPerStringLegacy)
{
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(4711);

    const Statevector st = randomState(8, rng);
    const PauliSum h = collidingSum(8, 25, rng);
    const ExpectationPlan plan(h);

    for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
        setIntraStateParallelThreshold(threshold);
        for (bool simd : {false, true}) {
            setSimdEnabled(simd);
            std::vector<double> sums(h.numTerms(), 0.0);
            plan.termExpectations(st, sums.data());
            for (std::size_t k = 0; k < h.numTerms(); ++k) {
                const double legacy =
                    expectation(st, h.terms()[k].pauli);
                EXPECT_EQ(bits(legacy), bits(sums[k]))
                    << "term " << k << " threshold=" << threshold
                    << " simd=" << simd;
            }
        }
    }
}

TEST(BatchedExpectation, CacheHitBitIdenticalToMiss)
{
    Rng rng(808);
    const Statevector st = randomState(7, rng);
    const PauliSum h = collidingSum(7, 22, rng);

    ExpectationPlanCache cache;
    const auto miss = cache.acquire(h);
    const double from_miss = miss->evaluate(st);
    const auto hit = cache.acquire(h);
    const double from_hit = hit->evaluate(st);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(bits(from_miss), bits(from_hit));
    // A freshly compiled plan agrees too (plans are pure functions).
    EXPECT_EQ(bits(from_miss), bits(ExpectationPlan(h).evaluate(st)));
}

TEST(BatchedExpectation, WidthMismatchStillThrows)
{
    PauliSum h(3);
    h.add(1.0, "ZZZ");
    Statevector st(2);
    EXPECT_THROW(expectation(st, h), std::invalid_argument);
    const ExpectationPlan plan(h);
    EXPECT_THROW(plan.evaluate(st), std::invalid_argument);
}

struct EstimatorFixture
{
    EstimatorFixture()
        : hamiltonian(tfimHamiltonian({.numQubits = 5})),
          ansatz(RealAmplitudes(5, 2).build()),
          noise(machineModel("guadalupe").staticModel())
    {
    }

    PauliSum hamiltonian;
    Circuit ansatz;
    StaticNoiseModel noise;

    std::vector<double> theta() const
    {
        std::vector<double> t(
            static_cast<std::size_t>(ansatz.numParams()));
        Rng rng(99);
        for (auto &x : t)
            x = rng.uniform(-1.0, 1.0);
        return t;
    }
};

TEST(BatchedExpectation, EstimatorIdealAndAnalyticBitIdentical)
{
    EstimatorFixture f;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Analytic;
    const EnergyEstimator est(f.hamiltonian, f.ansatz, f.noise, cfg);
    const auto theta = f.theta();

    // The state every estimate prepares, and the reference fold over
    // the estimator's own (simplified) Hamiltonian.
    Statevector st(f.ansatz.numQubits());
    st.run(CompiledCircuit(f.ansatz), theta);
    EXPECT_EQ(bits(legacyEval(st, est.hamiltonian())),
              bits(est.idealEnergy(theta)));

    // Analytic mode: the damped per-string fold plus one Gaussian
    // shot-noise draw, rebuilt here in the estimator's op order.
    const double tau = 0.3;
    const double survival = std::clamp(
        est.staticSurvival() *
            (1.0 - tau * EnergyEstimator::transientSensitivity(st)),
        0.0, 1.0);
    const double shots = static_cast<double>(cfg.shots);
    double e = est.mixedEnergy();
    double var = 0.0;
    for (const PauliTerm &t : est.hamiltonian().terms()) {
        if (t.pauli.isIdentity())
            continue;
        const double p = survival * expectation(st, t.pauli);
        e += t.coefficient * p;
        var += t.coefficient * t.coefficient * (1.0 - p * p) / shots;
    }
    Rng rng_ref(42);
    const double analytic_ref = e + rng_ref.normal(0.0, std::sqrt(var));
    Rng rng(42);
    EXPECT_EQ(bits(analytic_ref), bits(est.estimate(theta, tau, rng)));
}

TEST(BatchedExpectation, EstimatorSamplingBitIdentical)
{
    EstimatorFixture f;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Sampling;
    cfg.shots = 256;
    const EnergyEstimator est(f.hamiltonian, f.ansatz, f.noise, cfg);

    // The sampling estimate reads each group's support masks and
    // coefficients from the plan's flattened tables. They must be the
    // term list's own values, in the group's term order, bit for bit.
    const auto &terms = est.hamiltonian().terms();
    const auto &groups = est.plan()->measurementGroups();
    ASSERT_EQ(groups.size(), est.numGroups());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto &masks = est.plan()->samplingMasks(g);
        const auto &coeffs = est.plan()->samplingCoefficients(g);
        const auto &members = groups[g].termIndices;
        ASSERT_EQ(masks.size(), members.size()) << "group " << g;
        ASSERT_EQ(coeffs.size(), members.size()) << "group " << g;
        for (std::size_t k = 0; k < members.size(); ++k) {
            const PauliTerm &t = terms[members[k]];
            EXPECT_EQ(masks[k], t.pauli.supportMask())
                << "group " << g << " term " << k;
            EXPECT_EQ(bits(coeffs[k]), bits(t.coefficient))
                << "group " << g << " term " << k;
        }
    }

    // And the estimate itself is a pure function of (θ, τ, stream).
    const auto theta = f.theta();
    Rng rng_a(7);
    const double first = est.estimate(theta, 0.2, rng_a);
    Rng rng_b(7);
    EXPECT_EQ(bits(first), bits(est.estimate(theta, 0.2, rng_b)));
}

TEST(BatchedExpectation, EstimatorsSharingACacheShareThePlan)
{
    EstimatorFixture f;
    ExpectationPlanCache cache;
    EstimatorConfig cfg;
    cfg.mode = EstimatorMode::Analytic;
    cfg.planCache = &cache;
    cfg.planCacheTenant = 11;

    const EnergyEstimator a(f.hamiltonian, f.ansatz, f.noise, cfg);
    const EnergyEstimator b(f.hamiltonian, f.ansatz, f.noise, cfg);
    EXPECT_EQ(a.plan().get(), b.plan().get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different tenant on the same cache compiles its own plan.
    cfg.planCacheTenant = 12;
    const EnergyEstimator c(f.hamiltonian, f.ansatz, f.noise, cfg);
    EXPECT_NE(a.plan().get(), c.plan().get());
    EXPECT_EQ(cache.misses(), 2u);
}

} // namespace
} // namespace qismet
