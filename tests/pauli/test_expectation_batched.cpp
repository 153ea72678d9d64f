/**
 * @file
 * Differential battery for the batched single-sweep expectation
 * engine: it must agree **bit for bit** (DESIGN.md §16) with the
 * reference, a term-by-term fold of the per-string
 * expectation(state, PauliString) — on random states and sums with
 * forced xmask collisions, with SIMD on and off, serial and blocked, at
 * 1/2/4/8 threads, for Statevector and DensityMatrix, through the
 * EnergyEstimator paths, and on cache hits vs misses. The lane layout
 * (DESIGN.md §16) adds its own cases: groups mixing ±D and ±E terms,
 * groups wider than a vector block, odd and even xmasks, kernel ranges
 * that start at an odd state, widths 1–14, and non-finite amplitudes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ansatz/real_amplitudes.hpp"
#include "common/block_partition.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/h2_molecule.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "pauli/expectation.hpp"
#include "pauli/expectation_plan.hpp"
#include "sim/kernels.hpp"
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

TEST(BatchedExpectation, WidthMismatchStillThrows)
{
    PauliSum h(3);
    h.add(1.0, "ZZZ");
    Statevector st(2);
    EXPECT_THROW(expectation(st, h), std::invalid_argument);
    const ExpectationPlan plan(h);
    EXPECT_THROW(plan.evaluate(st), std::invalid_argument);
}

/** Fully random strings over n qubits plus an identity term. */
PauliSum
randomSum(int num_qubits, int num_terms, Rng &rng)
{
    const char ops[] = {'I', 'X', 'Y', 'Z'};
    PauliSum h(num_qubits);
    h.add(rng.normal(), std::string(static_cast<std::size_t>(num_qubits), 'I'));
    for (int t = 1; t < num_terms; ++t) {
        std::string label;
        for (int q = 0; q < num_qubits; ++q)
            label += ops[rng.uniformInt(4)];
        h.add(rng.normal(), label);
    }
    return h;
}

/** The reference per term, folded over the whole state. */
std::vector<double>
legacyTerms(const Statevector &st, const PauliSum &h)
{
    std::vector<double> out;
    for (const PauliTerm &t : h.terms())
        out.push_back(expectation(st, t.pauli));
    return out;
}

/**
 * The legacy per-term addend Re(conj(a[i^x]) · phase(i) · a[i]) summed
 * over [u0, u1) from +0.0 in ascending i — the serial reference a
 * kernel range is compared against.
 */
double
legacyRangeSum(std::span<const Complex> amps, const PauliString &p,
               std::size_t u0, std::size_t u1)
{
    Complex unit(1.0, 0.0);
    for (int k = 0; k < (p.countY() & 3); ++k)
        unit *= Complex(0.0, 1.0);
    double acc = 0.0;
    for (std::size_t i = u0; i < u1; ++i) {
        const bool odd = (std::popcount(i & p.zMask()) & 1) != 0;
        const Complex phase = odd ? -unit : unit;
        acc += (std::conj(amps[i ^ p.xMask()]) * phase * amps[i]).real();
    }
    return acc;
}

/** Plan sums against the per-term reference, bit for bit. */
void
expectTermsMatch(const ExpectationPlan &plan, const Statevector &st,
                 const PauliSum &h, const std::string &what)
{
    std::vector<double> sums(h.numTerms(), 0.0);
    plan.termExpectations(st, sums.data());
    const std::vector<double> legacy = legacyTerms(st, h);
    for (std::size_t k = 0; k < h.numTerms(); ++k)
        EXPECT_EQ(bits(legacy[k]), bits(sums[k]))
            << what << " term " << k << " (" << h.terms()[k].pauli.label()
            << ") legacy=" << legacy[k] << " plan=" << sums[k];
}

TEST(BatchedExpectation, GroupsMixingRealAndImaginaryPhases)
{
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(1717);

    // XX, XY, YX and YY share one xmask and read +D, -E, -E and -D.
    PauliSum mixed(4);
    for (const char *label :
         {"IIXX", "IIXY", "IIYX", "IIYY", "ZZXY", "XYXY", "YYYY", "IXYI"})
        mixed.add(rng.normal(), label);
    PauliSum h2 = h2Problem(0.735).hamiltonian;

    for (const PauliSum *h : {&mixed, &h2}) {
        const ExpectationPlan plan(*h);
        for (int rep = 0; rep < 20; ++rep) {
            const Statevector st = randomState(h->numQubits(), rng);
            for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
                setIntraStateParallelThreshold(threshold);
                for (bool simd : {false, true}) {
                    setSimdEnabled(simd);
                    expectTermsMatch(plan, st, *h,
                                     "simd=" + std::to_string(simd) +
                                         " threshold=" +
                                         std::to_string(threshold));
                }
            }
        }
    }
}

TEST(BatchedExpectation, GroupWiderThanTheOldSlab)
{
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(3232);

    // X or Y on qubit 0 (one odd xmask) times every Z/I pattern on
    // qubits 1..5: 64 terms in one group, half of them ±E.
    PauliSum wide(6);
    for (int pattern = 0; pattern < 64; ++pattern) {
        std::string label(6, 'I');
        for (int q = 1; q < 6; ++q)
            if ((pattern >> q) & 1)
                label[static_cast<std::size_t>(5 - q)] = 'Z';
        label[5] = (pattern & 1) ? 'Y' : 'X';
        wide.add(rng.normal(), label);
    }
    const ExpectationPlan plan(wide);
    ASSERT_EQ(plan.numGroups(), 1u);
    ASSERT_GT(plan.numTerms(), 32u);
    for (int rep = 0; rep < 10; ++rep) {
        const Statevector st = randomState(6, rng);
        for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
            setIntraStateParallelThreshold(threshold);
            for (bool simd : {false, true}) {
                setSimdEnabled(simd);
                expectTermsMatch(plan, st, wide,
                                 "simd=" + std::to_string(simd));
            }
        }
    }
}

TEST(BatchedExpectation, OddAndEvenXmasks)
{
    SimdGuard simd_guard;
    Rng rng(4545);

    // Every xmask of 5 qubits, odd and even alike, with a Z/Y mix on
    // top, so each of the block orders of a partner load is used.
    PauliSum h(5);
    for (std::uint64_t x = 0; x < 32; ++x) {
        std::string label(5, 'I');
        for (int q = 0; q < 5; ++q) {
            const auto c = static_cast<std::size_t>(4 - q);
            if ((x >> q) & 1)
                label[c] = rng.uniform() < 0.5 ? 'X' : 'Y';
            else if (rng.uniform() < 0.5)
                label[c] = 'Z';
        }
        h.add(rng.normal(), label);
    }
    const ExpectationPlan plan(h);
    ASSERT_EQ(plan.numGroups(), 32u);
    for (int rep = 0; rep < 10; ++rep) {
        const Statevector st = randomState(5, rng);
        for (bool simd : {false, true}) {
            setSimdEnabled(simd);
            expectTermsMatch(plan, st, h, "simd=" + std::to_string(simd));
        }
    }
}

TEST(BatchedExpectation, KernelRangesStartingAtOddStates)
{
    Rng rng(6161);
    for (int n : {3, 5, 7}) {
        const Statevector st = randomState(n, rng);
        const PauliSum h = randomSum(n, 13, rng);
        const ExpectationPlan plan(h);
        const kern::PauliLanes lanes = plan.lanes();
        const std::span<const Complex> amps = st.amplitudes();
        const std::size_t dim = amps.size();
        std::vector<double> rows(kern::pauliRowScratch(lanes));
        for (const auto &[u0, u1] :
             std::vector<std::pair<std::size_t, std::size_t>>{
                 {1, dim}, {3, dim - 1}, {5, 6}, {7, dim}, {dim - 3, dim},
                 {17 % dim, dim}}) {
            if (u0 >= u1)
                continue;
            for (bool simd : {false, true}) {
                std::vector<double> acc(lanes.numLanes, 0.0);
                kern::pauliLaneSums(amps, lanes, simd, u0, u1, acc.data(),
                                    rows.data());
                for (std::size_t k = 0; k < h.numTerms(); ++k)
                    EXPECT_EQ(bits(legacyRangeSum(amps, h.terms()[k].pauli,
                                                  u0, u1)),
                              bits(acc[k]))
                        << "n=" << n << " [" << u0 << ", " << u1
                        << ") simd=" << simd << " term " << k;
            }
        }
    }
}

TEST(BatchedExpectation, WidthsOneToFourteenAtEveryThreadCount)
{
    SimdGuard simd_guard;
    GlobalThreadsGuard threads_guard;
    Rng rng(1414);

    for (int n = 1; n <= 14; ++n) {
        const Statevector st = randomState(n, rng);
        const PauliSum h = randomSum(n, 18, rng);
        const ExpectationPlan plan(h);
        for (std::size_t threads : {1u, 2u, 4u, 8u}) {
            ParallelExecutor::global().setThreads(threads);
            for (bool simd : {false, true}) {
                setSimdEnabled(simd);
                expectTermsMatch(plan, st, h,
                                 "n=" + std::to_string(n) + " threads=" +
                                     std::to_string(threads) +
                                     " simd=" + std::to_string(simd));
            }
        }
    }
}

TEST(BatchedExpectation, NonFiniteAmplitudesStayNonFinite)
{
    SimdGuard simd_guard;
    ThresholdGuard threshold_guard;
    Rng rng(999);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    const PauliSum h = randomSum(5, 16, rng);
    const ExpectationPlan plan(h);
    for (const Complex bad : {Complex(inf, 0.0), Complex(0.0, -inf),
                              Complex(nan, 0.0), Complex(1.0, nan)}) {
        for (std::size_t at : {std::size_t{0}, std::size_t{13}}) {
            std::vector<Complex> amps = randomState(5, rng).amplitudes();
            amps[at] = bad;
            const Statevector st(std::move(amps));
            for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
                setIntraStateParallelThreshold(threshold);
                for (bool simd : {false, true}) {
                    setSimdEnabled(simd);
                    std::vector<double> sums(h.numTerms(), 0.0);
                    plan.termExpectations(st, sums.data());
                    for (std::size_t k = 0; k < h.numTerms(); ++k) {
                        EXPECT_FALSE(std::isfinite(sums[k]))
                            << "term " << k << " amp[" << at
                            << "] simd=" << simd << " = " << sums[k];
                        EXPECT_FALSE(std::isfinite(
                            expectation(st, h.terms()[k].pauli)))
                            << "legacy term " << k;
                    }
                }
            }
        }
    }
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

} // namespace
} // namespace qismet
