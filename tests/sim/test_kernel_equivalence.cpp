/**
 * @file
 * Randomized differential battery for the SIMD + parallel kernel layer
 * (sim/kernels.hpp): 500+ seeded cases across dense 2x2 (complex and
 * real fast path), dense 4x4 (including low-bit-adjacent quartets),
 * merged diagonal tables, the three permutation kernels, and the
 * density-matrix Kraus sweeps, at 2-12 qubits (Kraus capped at 8 for
 * memory).
 *
 * Two comparisons per kernel class, matching the rounding contract in
 * sim/kernels.hpp:
 *
 *   - **SIMD vs scalar**: byte-identical (memcmp). FP contraction is
 *     off and both paths round every multiply/add individually, so the
 *     AVX2 lanes must reproduce the scalar bits exactly.
 *   - **new vs legacy**: the pre-SIMD loop bodies are copied verbatim
 *     into this file as references; amplitudes must compare equal
 *     (operator==, so a -0.0 vs +0.0 from the real-matrix fast path is
 *     not a failure — the fast path elides `x - 0*y` terms).
 *
 * The Kraus sweeps are additionally checked against a naive dense
 * embedding (full-matrix K rho K^dagger) — a genuinely different
 * summation order, so that comparison is ULP-bounded, not exact.
 *
 * Half the seeds run with the intra-state parallel threshold forced to
 * 64 elements so the fixed-block partition is exercised even at small
 * widths; blocked and serial sweeps must agree bit-for-bit. A second
 * grid drives every qubit and every ordered pair at 2-8 qubits, at the
 * default threshold and at 64 and 16, so the unit walks also see
 * one-unit blocks and ranges that start or end inside a run.
 * A third calls the unit cores over every [k0, k1) sub-range at widths
 * 1-8, SIMD against scalar.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/block_partition.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/kraus.hpp"
#include "sim/statevector.hpp"

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

/** Map a double to a monotone integer so ULP distance is a subtraction. */
std::int64_t
monotoneKey(double x)
{
    const auto b = std::bit_cast<std::int64_t>(x);
    return b >= 0 ? b : std::numeric_limits<std::int64_t>::min() - b;
}

std::uint64_t
ulpDiff(double a, double b)
{
    if (a == b)
        return 0;
    // Subtract in unsigned space: key distances can exceed INT64_MAX
    // (e.g. +2.0 vs -2.0) and signed overflow would be UB under UBSan.
    const std::int64_t ka = monotoneKey(a);
    const std::int64_t kb = monotoneKey(b);
    return ka >= kb ? static_cast<std::uint64_t>(ka) -
                          static_cast<std::uint64_t>(kb)
                    : static_cast<std::uint64_t>(kb) -
                          static_cast<std::uint64_t>(ka);
}

/** ULP-bounded comparison for differently-ordered summations. */
void
expectClose(Complex a, Complex b, const char *what, std::size_t i)
{
    EXPECT_TRUE(ulpDiff(a.real(), b.real()) <= 256 ||
                std::abs(a.real() - b.real()) <= 1e-13)
        << what << "[" << i << "].re: " << a.real() << " vs " << b.real();
    EXPECT_TRUE(ulpDiff(a.imag(), b.imag()) <= 256 ||
                std::abs(a.imag() - b.imag()) <= 1e-13)
        << what << "[" << i << "].im: " << a.imag() << " vs " << b.imag();
}

std::vector<Complex>
randomState(std::size_t n, Rng &rng)
{
    std::vector<Complex> a(n);
    for (auto &x : a)
        x = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return a;
}

void
randomComplexArray(Complex *m, std::size_t n, Rng &rng)
{
    for (std::size_t i = 0; i < n; ++i)
        m[i] = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
}

/** Byte-level equality of two amplitude vectors (exact bit identity). */
void
expectBitIdentical(const std::vector<Complex> &a,
                   const std::vector<Complex> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)),
              0)
        << what << ": amplitude bytes differ";
}

/** Numeric equality (tolerates only -0.0 vs +0.0). */
void
expectValueEqual(const std::vector<Complex> &a,
                 const std::vector<Complex> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].real(), b[i].real()) << what << "[" << i << "].re";
        EXPECT_EQ(a[i].imag(), b[i].imag()) << what << "[" << i << "].im";
    }
}

// ---------------------------------------------------------------------
// Legacy references: verbatim copies of the pre-SIMD kernel loops (see
// kernels_scalar.cpp and the pre-refactor Statevector::apply* bodies).
// ---------------------------------------------------------------------

void
refDense1(std::vector<Complex> &a, int q, const Complex *m)
{
    const std::uint64_t stride = std::uint64_t{1} << q;
    for (std::uint64_t base = 0; base < a.size(); base += 2 * stride) {
        for (std::uint64_t off = 0; off < stride; ++off) {
            const std::uint64_t i0 = base + off;
            const std::uint64_t i1 = i0 + stride;
            const Complex a0 = a[i0];
            const Complex a1 = a[i1];
            a[i0] = m[0] * a0 + m[1] * a1;
            a[i1] = m[2] * a0 + m[3] * a1;
        }
    }
}

void
refDense2(std::vector<Complex> &a, int qm, int ql, const Complex *m)
{
    const std::uint64_t bm = std::uint64_t{1} << qm;
    const std::uint64_t bl = std::uint64_t{1} << ql;
    for (std::uint64_t i = 0; i < a.size(); ++i) {
        if (i & (bm | bl))
            continue;
        const std::uint64_t idx[4] = {i, i | bl, i | bm, i | bm | bl};
        Complex in[4];
        for (int k = 0; k < 4; ++k)
            in[k] = a[idx[k]];
        for (int r = 0; r < 4; ++r) {
            Complex acc(0.0, 0.0);
            for (int c = 0; c < 4; ++c)
                acc += m[r * 4 + c] * in[c];
            a[idx[r]] = acc;
        }
    }
}

void
refDiag(std::vector<Complex> &a, std::uint64_t mask, const Complex *table)
{
    const std::uint64_t comp = (a.size() - 1) & ~mask;
    const int t = std::popcount(mask);
    const std::uint64_t entries = std::uint64_t{1} << t;
    const Complex one(1.0, 0.0);
    for (std::uint64_t li = 0; li < entries; ++li) {
        const Complex d = table[li];
        if (d == one)
            continue;
        const std::uint64_t fixed = depositBits(li, mask);
        std::uint64_t s = 0;
        do {
            a[fixed | s] *= d;
            s = (s - comp) & comp;
        } while (s != 0);
    }
}

void
refPermX(std::vector<Complex> &a, int q)
{
    const std::uint64_t b = std::uint64_t{1} << q;
    for (std::uint64_t i = 0; i < a.size(); ++i)
        if (!(i & b))
            std::swap(a[i], a[i | b]);
}

void
refPermCX(std::vector<Complex> &a, int qc, int qt)
{
    const std::uint64_t cbit = std::uint64_t{1} << qc;
    const std::uint64_t tbit = std::uint64_t{1} << qt;
    for (std::uint64_t i = 0; i < a.size(); ++i)
        if ((i & cbit) && !(i & tbit))
            std::swap(a[i], a[i | tbit]);
}

void
refPermSwap(std::vector<Complex> &a, int qa, int qb)
{
    const std::uint64_t ba = std::uint64_t{1} << qa;
    const std::uint64_t bb = std::uint64_t{1} << qb;
    for (std::uint64_t i = 0; i < a.size(); ++i)
        if ((i & ba) && !(i & bb))
            std::swap(a[i], a[(i ^ ba) | bb]);
}

/**
 * Run `apply` against one random state two ways — scalar and SIMD (when
 * available) — plus the legacy reference, and assert the contract.
 * `apply` must mutate through the span only.
 */
template <typename ApplyFn, typename RefFn>
void
differentialCase(std::size_t dim, Rng &rng, ApplyFn apply, RefFn ref)
{
    const std::vector<Complex> init = randomState(dim, rng);

    std::vector<Complex> legacy = init;
    ref(legacy);

    SimdGuard simdGuard;
    setSimdEnabled(false);
    std::vector<Complex> scalar = init;
    apply(std::span<Complex>(scalar));
    expectValueEqual(scalar, legacy, "scalar-vs-legacy");

    if (simdAvailable()) {
        setSimdEnabled(true);
        std::vector<Complex> simd = init;
        apply(std::span<Complex>(simd));
        expectBitIdentical(simd, scalar, "simd-vs-scalar");
    }
}

/** (qubits, seed) grid; odd seeds force the blocked partition on. */
class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    void SetUp() override
    {
        if (std::get<1>(GetParam()) % 2 == 1)
            setIntraStateParallelThreshold(64);
    }

    int numQubits() const { return std::get<0>(GetParam()); }
    std::size_t dim() const
    {
        return std::size_t{1} << numQubits();
    }
    Rng makeRng(std::uint64_t salt) const
    {
        return Rng(salt * 1000003 +
                   static_cast<std::uint64_t>(101 * std::get<0>(GetParam()) +
                                              std::get<1>(GetParam())));
    }

  private:
    ThresholdGuard thresholdGuard_;
};

TEST_P(KernelEquivalenceTest, Dense1)
{
    Rng rng = makeRng(1);
    const int n = numQubits();

    // Complex matrix on a random qubit, plus the q==0 adjacent-pair
    // walk, plus a real matrix (exercises the real fast path, which the
    // whole-state entry point selects by inspecting the matrix).
    for (const int q : {static_cast<int>(rng.uniformInt(
                            static_cast<std::uint64_t>(n))),
                        0}) {
        Complex m[4];
        randomComplexArray(m, 4, rng);
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) { kern::applyDense1(s, q, m); },
            [&](std::vector<Complex> &a) { refDense1(a, q, m); });

        Complex mr[4];
        for (int i = 0; i < 4; ++i)
            mr[i] = Complex(rng.uniform(-1.0, 1.0), 0.0);
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) { kern::applyDense1(s, q, mr); },
            [&](std::vector<Complex> &a) { refDense1(a, q, mr); });
    }
}

TEST_P(KernelEquivalenceTest, Dense2)
{
    Rng rng = makeRng(2);
    const int n = numQubits();

    // A random distinct pair plus a pair touching qubit 0 (the
    // low-bit-adjacent quartet path that cannot vectorize across runs).
    int qa = static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(n)));
    int qb = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(n - 1)));
    if (qb >= qa)
        ++qb;
    const std::pair<int, int> pairs[2] = {{qa, qb}, {n - 1, 0}};
    for (const auto &[qm, ql] : pairs) {
        Complex m[16];
        randomComplexArray(m, 16, rng);
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) { kern::applyDense2(s, qm, ql, m); },
            [&](std::vector<Complex> &a) { refDense2(a, qm, ql, m); });
    }
}

TEST_P(KernelEquivalenceTest, Diag)
{
    Rng rng = makeRng(3);
    const int n = numQubits();

    // Random qubit subset; force some exact-one entries so the skip
    // branch (which preserves -0.0 signs) is exercised.
    std::uint64_t mask = 0;
    for (int q = 0; q < n; ++q)
        if (rng.bernoulli(0.5))
            mask |= std::uint64_t{1} << q;
    if (mask == 0)
        mask = 1;
    const std::uint64_t entries = std::uint64_t{1}
                                  << std::popcount(mask);
    std::vector<Complex> table(entries);
    for (auto &d : table)
        d = rng.bernoulli(0.25)
                ? Complex(1.0, 0.0)
                : Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    differentialCase(
        dim(), rng,
        [&](std::span<Complex> s) { kern::applyDiag(s, mask, table.data()); },
        [&](std::vector<Complex> &a) { refDiag(a, mask, table.data()); });
}

TEST_P(KernelEquivalenceTest, Permutations)
{
    Rng rng = makeRng(4);
    const int n = numQubits();
    const int q = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(n)));
    int p = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(n - 1)));
    if (p >= q)
        ++p;

    differentialCase(
        dim(), rng,
        [&](std::span<Complex> s) { kern::applyPermX(s, q); },
        [&](std::vector<Complex> &a) { refPermX(a, q); });
    differentialCase(
        dim(), rng,
        [&](std::span<Complex> s) { kern::applyPermCX(s, q, p); },
        [&](std::vector<Complex> &a) { refPermCX(a, q, p); });
    differentialCase(
        dim(), rng,
        [&](std::span<Complex> s) { kern::applyPermSwap(s, q, p); },
        [&](std::vector<Complex> &a) { refPermSwap(a, q, p); });
}

TEST_P(KernelEquivalenceTest, OrderedReductions)
{
    Rng rng = makeRng(5);
    const std::vector<Complex> a = randomState(dim(), rng);
    const std::vector<Complex> b = randomState(dim(), rng);
    std::uint64_t mask = 0;
    for (int q = 0; q < numQubits(); ++q)
        if (rng.bernoulli(0.5))
            mask |= std::uint64_t{1} << q;

    // Reductions are scalar arithmetic on both SIMD settings (the
    // dispatch only affects the elementwise kernels), so the bits must
    // not move when the switch flips.
    SimdGuard simdGuard;
    setSimdEnabled(false);
    const double n2Off = kern::norm2(a);
    const Complex ipOff = kern::innerProduct(a, b);
    const double ezOff = kern::expectationZMask(a, mask);
    setSimdEnabled(true);
    EXPECT_EQ(kern::norm2(a), n2Off);
    EXPECT_EQ(kern::innerProduct(a, b), ipOff);
    EXPECT_EQ(kern::expectationZMask(a, mask), ezOff);
}

INSTANTIATE_TEST_SUITE_P(Random, KernelEquivalenceTest,
                         ::testing::Combine(::testing::Range(2, 13),
                                            ::testing::Range(0, 10)));

// ---------------------------------------------------------------------
// Every position at small widths: each qubit and each ordered pair, at
// the default parallel threshold, at 64 and at 16 elements. The lower
// thresholds split the state into one-unit blocks and ranges that start
// or end inside a run, which is where the unit walks hand an odd end
// unit to the scalar code instead of the AVX2 walk.
// ---------------------------------------------------------------------

/** (qubits, threshold index): thresholds default, 64, 16. */
class KernelPositionSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    void SetUp() override
    {
        static const std::size_t kThresholds[] = {0, 64, 16};
        setIntraStateParallelThreshold(
            kThresholds[std::get<1>(GetParam())]);
    }

    int numQubits() const { return std::get<0>(GetParam()); }
    std::size_t dim() const { return std::size_t{1} << numQubits(); }
    Rng makeRng(std::uint64_t salt) const
    {
        return Rng(salt * 7919 +
                   static_cast<std::uint64_t>(10 * std::get<0>(GetParam()) +
                                              std::get<1>(GetParam())));
    }

  private:
    ThresholdGuard thresholdGuard_;
};

TEST_P(KernelPositionSweepTest, Dense1EveryQubit)
{
    Rng rng = makeRng(1);
    for (int q = 0; q < numQubits(); ++q) {
        SCOPED_TRACE("q=" + std::to_string(q));
        Complex m[4];
        randomComplexArray(m, 4, rng);
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) { kern::applyDense1(s, q, m); },
            [&](std::vector<Complex> &a) { refDense1(a, q, m); });
        Complex mr[4];
        for (Complex &e : mr)
            e = Complex(rng.uniform(-1.0, 1.0), 0.0);
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) { kern::applyDense1(s, q, mr); },
            [&](std::vector<Complex> &a) { refDense1(a, q, mr); });
    }
}

TEST_P(KernelPositionSweepTest, Dense2EveryOrderedPair)
{
    Rng rng = makeRng(2);
    for (int qm = 0; qm < numQubits(); ++qm) {
        for (int ql = 0; ql < numQubits(); ++ql) {
            if (qm == ql)
                continue;
            SCOPED_TRACE("qm=" + std::to_string(qm) +
                         " ql=" + std::to_string(ql));
            Complex m[16];
            randomComplexArray(m, 16, rng);
            differentialCase(
                dim(), rng,
                [&](std::span<Complex> s) {
                    kern::applyDense2(s, qm, ql, m);
                },
                [&](std::vector<Complex> &a) { refDense2(a, qm, ql, m); });
        }
    }
}

TEST_P(KernelPositionSweepTest, DiagEveryQubitAndPair)
{
    Rng rng = makeRng(3);
    const int n = numQubits();
    std::vector<std::uint64_t> masks;
    for (int a = 0; a < n; ++a) {
        masks.push_back(std::uint64_t{1} << a);
        for (int b = a + 1; b < n; ++b)
            masks.push_back((std::uint64_t{1} << a) |
                            (std::uint64_t{1} << b));
    }
    masks.push_back(dim() - 1);
    for (const std::uint64_t mask : masks) {
        SCOPED_TRACE("mask=" + std::to_string(mask));
        // Some exact-one entries, so the skip branch runs too.
        std::vector<Complex> table(std::size_t{1} << std::popcount(mask));
        for (Complex &d : table)
            d = rng.bernoulli(0.25) ? Complex(1.0, 0.0)
                                    : Complex(rng.uniform(-1.0, 1.0),
                                              rng.uniform(-1.0, 1.0));
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) {
                kern::applyDiag(s, mask, table.data());
            },
            [&](std::vector<Complex> &a) {
                refDiag(a, mask, table.data());
            });
    }
}

TEST_P(KernelPositionSweepTest, PermutationsEveryPosition)
{
    Rng rng = makeRng(4);
    const int n = numQubits();
    for (int q = 0; q < n; ++q) {
        SCOPED_TRACE("q=" + std::to_string(q));
        differentialCase(
            dim(), rng,
            [&](std::span<Complex> s) { kern::applyPermX(s, q); },
            [&](std::vector<Complex> &a) { refPermX(a, q); });
        for (int p = 0; p < n; ++p) {
            if (p == q)
                continue;
            SCOPED_TRACE("p=" + std::to_string(p));
            differentialCase(
                dim(), rng,
                [&](std::span<Complex> s) { kern::applyPermCX(s, q, p); },
                [&](std::vector<Complex> &a) { refPermCX(a, q, p); });
            differentialCase(
                dim(), rng,
                [&](std::span<Complex> s) { kern::applyPermSwap(s, q, p); },
                [&](std::vector<Complex> &a) { refPermSwap(a, q, p); });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelPositionSweepTest,
                         ::testing::Combine(::testing::Range(2, 9),
                                            ::testing::Range(0, 3)));

// ---------------------------------------------------------------------
// Every [k0, k1) sub-range of the unit cores, odd ends included, at
// widths 1-8: the AVX2 walk (SIMD on) against the scalar walk (SIMD
// off), at every qubit and every ordered pair, bit 0 included. The
// cores are called directly, as Statevector::run, the blocked
// partition and the density-matrix rows call them.
// ---------------------------------------------------------------------

/** Width in qubits. */
class KernelSubRangeTest : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override
    {
        if (!simdAvailable())
            GTEST_SKIP() << "no AVX2 on this host";
    }

    int numQubits() const { return GetParam(); }
    std::size_t dim() const { return std::size_t{1} << numQubits(); }
};

/**
 * core(a, simd, k0, k1) over every sub-range of [0, units) of one
 * random state: the SIMD and scalar results are bit-identical, units
 * outside the range included.
 */
template <typename Core>
void
expectEverySubRangeMatches(std::size_t dim, std::size_t units, Rng &rng,
                           const Core &core)
{
    const std::vector<Complex> init = randomState(dim, rng);
    std::vector<Complex> scalar(dim);
    std::vector<Complex> simd(dim);
    for (std::size_t k0 = 0; k0 <= units; ++k0) {
        for (std::size_t k1 = k0; k1 <= units; ++k1) {
            scalar = init;
            simd = init;
            core(scalar.data(), false, k0, k1);
            core(simd.data(), true, k0, k1);
            if (std::memcmp(scalar.data(), simd.data(),
                            dim * sizeof(Complex)) != 0) {
                ADD_FAILURE() << "range [" << k0 << ", " << k1
                              << ") differs between SIMD and scalar";
                return;
            }
        }
    }
}

TEST_P(KernelSubRangeTest, Dense1AndXEveryQubit)
{
    Rng rng(static_cast<std::uint64_t>(0x5B0 + numQubits()));
    for (int q = 0; q < numQubits(); ++q) {
        SCOPED_TRACE("q=" + std::to_string(q));
        Complex m[4];
        randomComplexArray(m, 4, rng);
        Complex mr[4];
        for (Complex &e : mr)
            e = Complex(rng.uniform(-1.0, 1.0), 0.0);
        for (const bool real : {false, true}) {
            const Complex *mat = real ? mr : m;
            expectEverySubRangeMatches(
                dim(), dim() >> 1, rng,
                [&](Complex *a, bool simd, std::size_t k0, std::size_t k1) {
                    kern::dense1Units(a, q, mat, real, simd, k0, k1);
                });
        }
        expectEverySubRangeMatches(
            dim(), dim() >> 1, rng,
            [&](Complex *a, bool simd, std::size_t k0, std::size_t k1) {
                kern::permXUnits(a, q, simd, k0, k1);
            });
    }
}

TEST_P(KernelSubRangeTest, Dense2CxAndSwapEveryOrderedPair)
{
    Rng rng(static_cast<std::uint64_t>(0x5B1 + numQubits()));
    for (int qa = 0; qa < numQubits(); ++qa) {
        for (int qb = 0; qb < numQubits(); ++qb) {
            if (qa == qb)
                continue;
            SCOPED_TRACE("qa=" + std::to_string(qa) +
                         " qb=" + std::to_string(qb));
            Complex m[16];
            randomComplexArray(m, 16, rng);
            expectEverySubRangeMatches(
                dim(), dim() >> 2, rng,
                [&](Complex *a, bool simd, std::size_t k0, std::size_t k1) {
                    kern::dense2Units(a, qa, qb, m, simd, k0, k1);
                });
            expectEverySubRangeMatches(
                dim(), dim() >> 2, rng,
                [&](Complex *a, bool simd, std::size_t k0, std::size_t k1) {
                    kern::permCXUnits(a, qa, qb, simd, k0, k1);
                });
            expectEverySubRangeMatches(
                dim(), dim() >> 2, rng,
                [&](Complex *a, bool simd, std::size_t k0, std::size_t k1) {
                    kern::permSwapUnits(a, qa, qb, simd, k0, k1);
                });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelSubRangeTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// Whole-circuit differential: compiled-kernel execution vs the legacy
// gate-by-gate path. Fusion reorders products, so this comparison is
// tolerance-bounded — it pins semantics, not bits (the bit-level
// contract is covered per-kernel above).
// ---------------------------------------------------------------------

TEST(KernelCircuitEquivalence, CompiledMatchesLegacySimdOnAndOff)
{
    for (const int n : {4, 7, 10}) {
        Rng rng(static_cast<std::uint64_t>(7100 + n));
        Circuit c(n);
        for (int g = 0; g < 6 * n; ++g) {
            const int q = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(n)));
            int p = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(n - 1)));
            if (p >= q)
                ++p;
            switch (rng.uniformInt(6)) {
              case 0: c.h(q); break;
              case 1: c.rx(q, rng.uniform(-M_PI, M_PI)); break;
              case 2: c.rz(q, rng.uniform(-M_PI, M_PI)); break;
              case 3: c.cx(q, p); break;
              case 4: c.cz(q, p); break;
              default: c.swap(q, p); break;
            }
        }

        Statevector legacy(n);
        for (const Gate &g : c.gates())
            legacy.applyGate(g);

        SimdGuard simdGuard;
        const CompiledCircuit cc(c);
        setSimdEnabled(false);
        Statevector scalar(n);
        scalar.run(cc);
        for (std::size_t i = 0; i < scalar.dim(); ++i) {
            EXPECT_NEAR(scalar.amplitudes()[i].real(),
                        legacy.amplitudes()[i].real(), 1e-12);
            EXPECT_NEAR(scalar.amplitudes()[i].imag(),
                        legacy.amplitudes()[i].imag(), 1e-12);
        }

        if (simdAvailable()) {
            setSimdEnabled(true);
            Statevector simd(n);
            simd.run(cc);
            expectBitIdentical(simd.amplitudes(), scalar.amplitudes(),
                               "compiled simd-vs-scalar");
        }
    }
}

// ---------------------------------------------------------------------
// Kraus sweeps (density matrix).
// ---------------------------------------------------------------------

/** Embed a w x w operator over `qubits` (MSB first) into the full dim. */
Matrix
embedOperator(const Matrix &op, const std::vector<int> &qubits, int n)
{
    const std::size_t dim = std::size_t{1} << n;
    std::uint64_t mask = 0;
    for (const int q : qubits)
        mask |= std::uint64_t{1} << q;
    const auto localIndex = [&](std::uint64_t full) {
        std::uint64_t l = 0;
        for (const int q : qubits)
            l = (l << 1) | ((full >> q) & 1);
        return l;
    };
    Matrix f(dim, dim);
    for (std::uint64_t r = 0; r < dim; ++r)
        for (std::uint64_t c = 0; c < dim; ++c)
            if ((r & ~mask) == (c & ~mask))
                f(r, c) = op(localIndex(r), localIndex(c));
    return f;
}

Matrix
densityToMatrix(const DensityMatrix &rho)
{
    Matrix m(rho.dim(), rho.dim());
    for (std::size_t r = 0; r < rho.dim(); ++r)
        for (std::size_t c = 0; c < rho.dim(); ++c)
            m(r, c) = rho.element(r, c);
    return m;
}

DensityMatrix
randomDensity(int n, Rng &rng)
{
    // A random pure state is enough: the sweeps never look at
    // Hermiticity, and a rank-1 rho keeps the reference cheap.
    std::vector<Complex> amps = randomState(std::size_t{1} << n, rng);
    return DensityMatrix(Statevector(std::move(amps)));
}

KrausChannel
randomChannel(int width, Rng &rng)
{
    switch (rng.uniformInt(4)) {
      case 0:
        return width == 1
                   ? KrausChannel::depolarizing1q(rng.uniform(0.01, 0.3))
                   : KrausChannel::depolarizing2q(rng.uniform(0.01, 0.3));
      case 1:
        return width == 1
                   ? KrausChannel::amplitudeDamping(rng.uniform(0.01, 0.5))
                   : KrausChannel::depolarizing2q(rng.uniform(0.01, 0.2));
      case 2:
        return width == 1
                   ? KrausChannel::phaseDamping(rng.uniform(0.01, 0.5))
                   : KrausChannel::depolarizing2q(rng.uniform(0.05, 0.4));
      default:
        return width == 1 ? KrausChannel::bitFlip(rng.uniform(0.01, 0.4))
                          : KrausChannel::depolarizing2q(
                                rng.uniform(0.1, 0.5));
    }
}

class KrausEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    void SetUp() override
    {
        if (std::get<1>(GetParam()) % 2 == 1)
            setIntraStateParallelThreshold(64);
    }

  private:
    ThresholdGuard thresholdGuard_;
};

TEST_P(KrausEquivalenceTest, SweepMatchesDenseReference)
{
    const int n = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(8300 * n + seed));

    DensityMatrix rho = randomDensity(n, rng);
    const Matrix before = densityToMatrix(rho);

    const KrausChannel ch1 = randomChannel(1, rng);
    const int q = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(n)));
    rho.applyChannel1q(q, ch1);

    Matrix expected(before.rows(), before.cols());
    for (const Matrix &k : ch1.operators()) {
        const Matrix f = embedOperator(k, {q}, n);
        expected += f * before * f.adjoint();
    }
    const Matrix after1 = densityToMatrix(rho);
    for (std::size_t r = 0; r < expected.rows(); ++r)
        for (std::size_t c = 0; c < expected.cols(); ++c)
            expectClose(after1(r, c), expected(r, c), "kraus1q",
                        r * expected.cols() + c);

    if (n >= 2) {
        const KrausChannel ch2 = randomChannel(2, rng);
        const int q1 = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(n)));
        int q0 = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(n - 1)));
        if (q0 >= q1)
            ++q0;
        rho.applyChannel2q(q1, q0, ch2);

        Matrix expected2(after1.rows(), after1.cols());
        for (const Matrix &k : ch2.operators()) {
            const Matrix f = embedOperator(k, {q1, q0}, n);
            expected2 += f * after1 * f.adjoint();
        }
        const Matrix after2 = densityToMatrix(rho);
        for (std::size_t r = 0; r < expected2.rows(); ++r)
            for (std::size_t c = 0; c < expected2.cols(); ++c)
                expectClose(after2(r, c), expected2(r, c), "kraus2q",
                            r * expected2.cols() + c);
    }
}

INSTANTIATE_TEST_SUITE_P(Random, KrausEquivalenceTest,
                         ::testing::Combine(::testing::Range(2, 7),
                                            ::testing::Range(0, 8)));

class KrausSimdBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(KrausSimdBitIdentityTest, SimdOnOffBitIdentical)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no AVX2 on this host";
    const int n = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(9400 * n + seed));

    const DensityMatrix init = randomDensity(n, rng);
    const KrausChannel ch1 = randomChannel(1, rng);
    const KrausChannel ch2 = randomChannel(2, rng);
    const int q = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(n)));
    const int q1 = (q + 1) % n;

    SimdGuard simdGuard;
    const auto runBoth = [&](bool simd) {
        setSimdEnabled(simd);
        DensityMatrix rho = init;
        rho.applyChannel1q(q, ch1);
        rho.applyChannel2q(q1, q, ch2);
        return densityToMatrix(rho);
    };
    const Matrix off = runBoth(false);
    const Matrix on = runBoth(true);
    EXPECT_EQ(std::memcmp(off.data().data(), on.data().data(),
                          off.data().size() * sizeof(Complex)),
              0)
        << "Kraus sweep bits differ between SIMD on and off";
}

INSTANTIATE_TEST_SUITE_P(Random, KrausSimdBitIdentityTest,
                         ::testing::Combine(::testing::Range(2, 9),
                                            ::testing::Range(0, 4)));

} // namespace
} // namespace qismet
