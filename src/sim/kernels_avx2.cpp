/**
 * @file
 * AVX2 kernel cores.
 *
 * Compiled in every build (no global -mavx2): each core carries a
 * per-function target("avx2,fma") attribute and is only called after
 * the runtime dispatch check (simdEnabled()). A run core processes the
 * longest 2-complex-aligned prefix and returns the number of units it
 * completed; the wrappers in kernels_scalar.cpp run the scalar tail. A
 * unit walk covers a whole even-bounded range of its unit core in one
 * call, two units per vector, with the vector body inlined into the
 * run loop; the cores give it no odd unit.
 *
 * Bit-compatibility with the scalar code (see kernels.hpp):
 *
 *   - complex multiply = mul + mul + addsub — the naive two-multiply
 *     form, never vfmaddsub. The FMA target feature is enabled only
 *     because the dispatch check requires it; this TU is built with
 *     -ffp-contract=off (see src/CMakeLists.txt) so the compiler cannot
 *     contract the intrinsic mul/add chains either (GCC lowers
 *     _mm256_mul_pd/_mm256_add_pd to plain vector ops that are
 *     otherwise fair game for contraction).
 *   - IEEE-754 multiplies and adds are commutative bit-for-bit, so
 *     lane-parallel evaluation with swapped operand order is identical
 *     to the scalar loops.
 */

#include "sim/kernels.hpp"

#if QISMET_SIMD_X86

#include <algorithm>
#include <bit>
#include <immintrin.h>

#include "sim/compiled_circuit.hpp"

#define QISMET_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define QISMET_TARGET_AVX2_POPCNT \
    __attribute__((target("avx2,fma,popcnt")))

namespace qismet {
namespace kern {
namespace detail {

namespace {

/**
 * (ur + i*ui) * v for two packed complexes in v, constant broadcast
 * factors: addsub(ur*v, ui*swap(v)) = [ur*re - ui*im, ur*im + ui*re].
 */
QISMET_TARGET_AVX2 inline __m256d
cmulConst(__m256d ur, __m256d ui, __m256d v)
{
    const __m256d sw = _mm256_permute_pd(v, 0b0101);
    return _mm256_addsub_pd(_mm256_mul_pd(ur, v), _mm256_mul_pd(ui, sw));
}

/** Elementwise complex multiply x*y of two packed-complex vectors. */
QISMET_TARGET_AVX2 inline __m256d
cmulVec(__m256d x, __m256d y)
{
    const __m256d yr = _mm256_movedup_pd(y);
    const __m256d yi = _mm256_permute_pd(y, 0b1111);
    const __m256d xsw = _mm256_permute_pd(x, 0b0101);
    return _mm256_addsub_pd(_mm256_mul_pd(x, yr), _mm256_mul_pd(xsw, yi));
}

/** Broadcast real and imaginary parts of a 2x2's four entries. */
struct Bcast2
{
    __m256d r[4];
    __m256d i[4];
};

QISMET_TARGET_AVX2 inline Bcast2
broadcast2(const Complex *m)
{
    Bcast2 u;
    for (int e = 0; e < 4; ++e) {
        u.r[e] = _mm256_set1_pd(m[e].real());
        u.i[e] = _mm256_set1_pd(m[e].imag());
    }
    return u;
}

/**
 * 2x2 on two units: (a0, a1) <- u * (a0, a1), lane-wise. `Real` selects
 * the real-matrix formula r00*a0 + r01*a1, componentwise.
 */
template <bool Real>
QISMET_TARGET_AVX2 inline void
dense1Vec(const Bcast2 &u, __m256d &a0, __m256d &a1)
{
    __m256d o0;
    __m256d o1;
    if constexpr (Real) {
        o0 = _mm256_add_pd(_mm256_mul_pd(u.r[0], a0),
                           _mm256_mul_pd(u.r[1], a1));
        o1 = _mm256_add_pd(_mm256_mul_pd(u.r[2], a0),
                           _mm256_mul_pd(u.r[3], a1));
    } else {
        o0 = _mm256_add_pd(cmulConst(u.r[0], u.i[0], a0),
                           cmulConst(u.r[1], u.i[1], a1));
        o1 = _mm256_add_pd(cmulConst(u.r[2], u.i[2], a0),
                           cmulConst(u.r[3], u.i[3], a1));
    }
    a0 = o0;
    a1 = o1;
}

/** 2x2 on the two units at d0[0..4) and d1[0..4). */
template <bool Real>
QISMET_TARGET_AVX2 inline void
dense1Step(const Bcast2 &u, double *d0, double *d1)
{
    __m256d a0 = _mm256_loadu_pd(d0);
    __m256d a1 = _mm256_loadu_pd(d1);
    dense1Vec<Real>(u, a0, a1);
    _mm256_storeu_pd(d0, a0);
    _mm256_storeu_pd(d1, a1);
}

/**
 * 2x2 on two adjacent (a0, a1) pairs at d[0..8) — the q = 0 units,
 * regrouped across the 128-bit lanes so each vector holds two a0's or
 * two a1's.
 */
template <bool Real>
QISMET_TARGET_AVX2 inline void
dense1PairStep(const Bcast2 &u, double *d)
{
    const __m256d v0 = _mm256_loadu_pd(d);
    const __m256d v1 = _mm256_loadu_pd(d + 4);
    __m256d a0 = _mm256_permute2f128_pd(v0, v1, 0x20);
    __m256d a1 = _mm256_permute2f128_pd(v0, v1, 0x31);
    dense1Vec<Real>(u, a0, a1);
    _mm256_storeu_pd(d, _mm256_permute2f128_pd(a0, a1, 0x20));
    _mm256_storeu_pd(d + 4, _mm256_permute2f128_pd(a0, a1, 0x31));
}

/** Broadcast real and imaginary parts of a 4x4's sixteen entries. */
struct Bcast4
{
    __m256d r[16];
    __m256d i[16];
};

QISMET_TARGET_AVX2 inline void
broadcast4(const Complex *m, Bcast4 &u)
{
    for (int e = 0; e < 16; ++e) {
        u.r[e] = _mm256_set1_pd(m[e].real());
        u.i[e] = _mm256_set1_pd(m[e].imag());
    }
}

/** 4x4 on the two units at d0..d3[0..4), local order (d0,d1,d2,d3). */
QISMET_TARGET_AVX2 inline void
dense2Step(const Bcast4 &u, double *d0, double *d1, double *d2, double *d3)
{
    const __m256d in[4] = {_mm256_loadu_pd(d0), _mm256_loadu_pd(d1),
                           _mm256_loadu_pd(d2), _mm256_loadu_pd(d3)};
    __m256d out[4];
    for (int r = 0; r < 4; ++r) {
        // Start from an explicit zero and add in column order — the
        // scalar accumulator's grouping (0.0 + (-0.0) = +0.0, so the
        // leading zero is not a no-op).
        __m256d acc = _mm256_setzero_pd();
        for (int c = 0; c < 4; ++c)
            acc = _mm256_add_pd(
                acc, cmulConst(u.r[r * 4 + c], u.i[r * 4 + c], in[c]));
        out[r] = acc;
    }
    _mm256_storeu_pd(d0, out[0]);
    _mm256_storeu_pd(d1, out[1]);
    _mm256_storeu_pd(d2, out[2]);
    _mm256_storeu_pd(d3, out[3]);
}

/** Exchange the two units at da[0..4) and db[0..4). */
QISMET_TARGET_AVX2 inline void
swapStep(double *da, double *db)
{
    const __m256d va = _mm256_loadu_pd(da);
    const __m256d vb = _mm256_loadu_pd(db);
    _mm256_storeu_pd(da, vb);
    _mm256_storeu_pd(db, va);
}

/*
 * The walks visit their range run by run. A run is a stretch of
 * consecutive unit addresses below the lowest acted-on bit, and a plain
 * contiguous loop covers it two units per vector. Where a run ends, the
 * index has just carried into the lowest acted-on bit; adding the
 * acted-on bits back as it reaches them lands on the start of the next
 * run, with no bit-deposit per run.
 */

/** Start of the run after the one ending at `end` (bits lo < hi clear). */
inline std::size_t
nextRun2(std::size_t end, std::size_t lo, std::size_t hi)
{
    end += lo;
    return end + (end & hi);
}

/** The dense1 walk over even [k0, k1) for one matrix flavour. */
template <bool Real>
QISMET_TARGET_AVX2 inline void
dense1Walk(Complex *a, int q, const Bcast2 &u, std::size_t k0,
           std::size_t k1)
{
    double *d = reinterpret_cast<double *>(a);
    if (q == 0) {
        for (std::size_t k = k0; k < k1; k += 2)
            dense1PairStep<Real>(u, d + 4 * k);
        return;
    }
    const std::size_t s = std::size_t{1} << q;
    std::size_t i = deposit1(k0, s);
    for (std::size_t left = k1 - k0; left > 0;) {
        const std::size_t len = std::min(s - (i & (s - 1)), left);
        double *d0 = d + 2 * i;
        double *d1 = d0 + 2 * s;
        for (std::size_t j = 0; j < 2 * len; j += 4)
            dense1Step<Real>(u, d0 + j, d1 + j);
        i += len + s; // past the run's partner half
        left -= len;
    }
}

} // namespace

QISMET_TARGET_AVX2 std::size_t
dense1RunAvx2(Complex *p0, Complex *p1, std::size_t count, const Complex *m)
{
    const Bcast2 u = broadcast2(m);
    double *d0 = reinterpret_cast<double *>(p0);
    double *d1 = reinterpret_cast<double *>(p1);
    const std::size_t vec = count & ~std::size_t{1};
    for (std::size_t i = 0; i < vec; i += 2)
        dense1Step<false>(u, d0 + 2 * i, d1 + 2 * i);
    return vec;
}

QISMET_TARGET_AVX2 std::size_t
dense2RunAvx2(Complex *p0, Complex *p1, Complex *p2, Complex *p3,
              std::size_t count, const Complex *m)
{
    Bcast4 u;
    broadcast4(m, u);
    double *d0 = reinterpret_cast<double *>(p0);
    double *d1 = reinterpret_cast<double *>(p1);
    double *d2 = reinterpret_cast<double *>(p2);
    double *d3 = reinterpret_cast<double *>(p3);
    const std::size_t vec = count & ~std::size_t{1};
    for (std::size_t i = 0; i < vec; i += 2)
        dense2Step(u, d0 + 2 * i, d1 + 2 * i, d2 + 2 * i, d3 + 2 * i);
    return vec;
}

QISMET_TARGET_AVX2 std::size_t
conjPhaseRowAvx2(Complex *row, const Complex *phases, Complex rowPhase,
                 std::size_t count)
{
    double *r = reinterpret_cast<double *>(row);
    const double *ph = reinterpret_cast<const double *>(phases);
    const __m256d prr = _mm256_set1_pd(rowPhase.real());
    const __m256d pri = _mm256_set1_pd(rowPhase.imag());
    // Sign-flip the imaginary lanes: conj via xor, exact.
    const __m256d conjMask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    const std::size_t vec = count & ~std::size_t{1};
    for (std::size_t i = 0; i < vec; i += 2) {
        const __m256d cph =
            _mm256_xor_pd(_mm256_loadu_pd(ph + 2 * i), conjMask);
        const __m256d t = cmulConst(prr, pri, cph);
        const __m256d v = _mm256_loadu_pd(r + 2 * i);
        _mm256_storeu_pd(r + 2 * i, cmulVec(v, t));
    }
    return vec;
}

/* ------------------------------------------------------------------ */
/* Unit walks: the whole [k0, k1) range of one unit core in one call,  */
/* with the vector body inlined, so a run costs no call of its own.    */
/* ------------------------------------------------------------------ */

QISMET_TARGET_AVX2 void
dense1UnitsAvx2(Complex *a, int q, const Complex *m, bool real,
                std::size_t k0, std::size_t k1)
{
    const Bcast2 u = broadcast2(m);
    if (real)
        dense1Walk<true>(a, q, u, k0, k1);
    else
        dense1Walk<false>(a, q, u, k0, k1);
}

QISMET_TARGET_AVX2 void
dense2UnitsAvx2(Complex *a, int qm, int ql, const Complex *m,
                std::size_t k0, std::size_t k1)
{
    Bcast4 u;
    broadcast4(m, u);
    const std::size_t bm = std::size_t{1} << qm;
    const std::size_t bl = std::size_t{1} << ql;
    const std::size_t lo = bm < bl ? bm : bl;
    const std::size_t hi = bm < bl ? bl : bm;
    double *d = reinterpret_cast<double *>(a);
    std::size_t i = deposit2(k0, bm, bl);
    for (std::size_t left = k1 - k0; left > 0;) {
        const std::size_t len = std::min(lo - (i & (lo - 1)), left);
        double *d0 = d + 2 * i;
        double *d1 = d + 2 * (i | bl);
        double *d2 = d + 2 * (i | bm);
        double *d3 = d + 2 * (i | bm | bl);
        for (std::size_t j = 0; j < 2 * len; j += 4)
            dense2Step(u, d0 + j, d1 + j, d2 + j, d3 + j);
        i = nextRun2(i + len, lo, hi);
        left -= len;
    }
}

QISMET_TARGET_AVX2 void
diagUnitsAvx2(Complex *a, std::size_t dim, std::uint64_t mask,
              const Complex *table, std::size_t u0, std::size_t u1)
{
    const std::uint64_t comp = (dim - 1) & ~mask;
    const int freeBits = std::countr_zero(dim) - std::popcount(mask);
    const std::size_t subSize = std::size_t{1} << freeBits;
    const std::size_t runLen = std::size_t{1} << std::countr_one(comp);
    double *p = reinterpret_cast<double *>(a);
    std::size_t u = u0;
    while (u < u1) {
        const std::uint64_t li = u >> freeBits;
        const std::size_t entryBegin = static_cast<std::size_t>(li) * subSize;
        const std::size_t jEnd = std::min(u1, entryBegin + subSize) -
                                 entryBegin;
        const Complex d = table[li];
        // An exact-one entry is skipped, not multiplied (multiplying by
        // one can flip a -0.0); the comparison rounds nothing.
        if (d != Complex(1.0, 0.0)) {
            const __m256d dr = _mm256_set1_pd(d.real());
            const __m256d di = _mm256_set1_pd(d.imag());
            const std::uint64_t fixed = depositBits(li, mask);
            for (std::size_t j = u - entryBegin; j < jEnd;) {
                const std::size_t len =
                    std::min(runLen - (j & (runLen - 1)), jEnd - j);
                double *run = p + 2 * (fixed | depositBits(j, comp));
                for (std::size_t i = 0; i < len; i += 2)
                    _mm256_storeu_pd(
                        run + 2 * i,
                        cmulConst(dr, di, _mm256_loadu_pd(run + 2 * i)));
                j += len;
            }
        }
        u = entryBegin + jEnd;
    }
}

QISMET_TARGET_AVX2 void
permXUnitsAvx2(Complex *a, int q, std::size_t k0, std::size_t k1)
{
    double *d = reinterpret_cast<double *>(a);
    if (q == 0) {
        // One unit (adjacent complex pair) per 256-bit vector: swapping
        // the two 128-bit halves swaps the amplitudes.
        for (std::size_t k = k0; k < k1; ++k) {
            const __m256d v = _mm256_loadu_pd(d + 4 * k);
            _mm256_storeu_pd(d + 4 * k, _mm256_permute2f128_pd(v, v, 0x01));
        }
        return;
    }
    const std::size_t b = std::size_t{1} << q;
    std::size_t i = deposit1(k0, b);
    for (std::size_t left = k1 - k0; left > 0;) {
        const std::size_t len = std::min(b - (i & (b - 1)), left);
        double *d0 = d + 2 * i;
        double *d1 = d0 + 2 * b;
        for (std::size_t j = 0; j < 2 * len; j += 4)
            swapStep(d0 + j, d1 + j);
        i += len + b; // past the run's partner half
        left -= len;
    }
}

QISMET_TARGET_AVX2 void
swapPairUnitsAvx2(Complex *a, std::size_t bA, std::size_t bB,
                  std::size_t offA, std::size_t offB, std::size_t k0,
                  std::size_t k1)
{
    const std::size_t lo = bA < bB ? bA : bB;
    const std::size_t hi = bA < bB ? bB : bA;
    double *d = reinterpret_cast<double *>(a);
    std::size_t i = deposit2(k0, bA, bB);
    for (std::size_t left = k1 - k0; left > 0;) {
        const std::size_t len = std::min(lo - (i & (lo - 1)), left);
        double *da = d + 2 * (i | offA);
        double *db = d + 2 * (i | offB);
        for (std::size_t j = 0; j < 2 * len; j += 4)
            swapStep(da + j, db + j);
        i = nextRun2(i + len, lo, hi);
        left -= len;
    }
}

/**
 * Grouped Pauli expectation core: two basis states per iteration. The
 * pair (i, i+1), i even, always maps under ^xmask onto the aligned
 * pair at (i^xmask) & ~1 — in order when xmask is even, swapped when
 * odd — so every load is a whole 2-complex vector. Per term the ±i^nY
 * phase constant is picked from a 4-entry table indexed by the two
 * parities, the two contributions are formed with the same mul/addsub
 * chain as the scalar code (cmulVec + mul + hsub: each product and the
 * final subtraction round individually), and the accumulator adds run
 * as scalar SSE adds in ascending i order — the exact legacy grouping.
 * The popcnt target feature is for the per-term parity of basis state
 * i; every AVX2 CPU has it, and the dispatch check already gates on
 * AVX2+FMA. Requires an even u0 and num_terms <= kPauliGroupSlab;
 * returns 0 otherwise (the wrapper's scalar path covers those calls).
 */
QISMET_TARGET_AVX2_POPCNT std::size_t
pauliGroupSumsAvx2(const Complex *a, std::uint64_t xmask,
                   const PauliTermSpec *terms, std::size_t num_terms,
                   std::size_t u0, std::size_t u1, double *acc)
{
    if ((u0 & 1) != 0 || u1 - u0 < 2 || num_terms > kPauliGroupSlab)
        return 0;
    const double *d = reinterpret_cast<const double *>(a);
    // conj via sign-flip of the imaginary lanes: exact.
    const __m256d conjMask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    const bool swapHalves = (xmask & 1) != 0;

    // Per-term phase vectors indexed by (parity(i), parity(i+1)):
    // tab[p0 + 2*p1] = [ph(p0).re, ph(p0).im, ph(p1).re, ph(p1).im].
    __m256d phaseTab[kPauliGroupSlab][4];
    for (std::size_t t = 0; t < num_terms; ++t) {
        const Complex pp = terms[t].phasePlus;
        const Complex pm = terms[t].phaseMinus;
        phaseTab[t][0] =
            _mm256_set_pd(pp.imag(), pp.real(), pp.imag(), pp.real());
        phaseTab[t][1] =
            _mm256_set_pd(pp.imag(), pp.real(), pm.imag(), pm.real());
        phaseTab[t][2] =
            _mm256_set_pd(pm.imag(), pm.real(), pp.imag(), pp.real());
        phaseTab[t][3] =
            _mm256_set_pd(pm.imag(), pm.real(), pm.imag(), pm.real());
    }

    std::size_t i = u0;
    for (; i + 2 <= u1; i += 2) {
        const __m256d va = _mm256_loadu_pd(d + 2 * i);
        const std::size_t j = (i ^ xmask) & ~std::size_t{1};
        __m256d vx = _mm256_loadu_pd(d + 2 * j);
        if (swapHalves)
            vx = _mm256_permute2f128_pd(vx, vx, 0x01);
        const __m256d vc = _mm256_xor_pd(vx, conjMask);
        for (std::size_t t = 0; t < num_terms; ++t) {
            const std::uint64_t z = terms[t].zmask;
            // parity(i+1) flips parity(i) iff bit 0 of z is set.
            const unsigned p0 =
                static_cast<unsigned>(std::popcount(i & z)) & 1u;
            const unsigned p1 = p0 ^ (static_cast<unsigned>(z) & 1u);
            const __m256d t1 = cmulVec(vc, phaseTab[t][p0 + 2 * p1]);
            // [t1r*u, t1i*v | ...]; hsub forms Re(t1 * a) per complex.
            const __m256d prod = _mm256_mul_pd(t1, va);
            const __m256d re = _mm256_hsub_pd(prod, prod);
            // Two single rounded adds, in i order, through the SSE
            // scalar-add path (no contraction is possible).
            __m128d av = _mm_load_sd(acc + t);
            av = _mm_add_sd(av, _mm256_castpd256_pd128(re));
            av = _mm_add_sd(av, _mm256_extractf128_pd(re, 1));
            _mm_store_sd(acc + t, av);
        }
    }
    return i - u0;
}

} // namespace detail
} // namespace kern
} // namespace qismet

#endif // QISMET_SIMD_X86
