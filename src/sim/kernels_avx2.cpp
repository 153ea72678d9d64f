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
 * call as a flat nested loop, two units per vector (one unit per step
 * for a CX or SWAP on bit 0), with the vector body inlined; the cores
 * give it no odd unit.
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
#include <array>
#include <bit>
#include <immintrin.h>
#include <utility>

#include "sim/cdf_search.hpp"
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
 * The walks are flat nested loops. A 1-bit walk (dense1, X) covers its
 * units in runs of s = 2^q consecutive amplitudes, one run every 2s. A
 * 2-bit walk (dense2, CX, SWAP) covers them in runs of `lo` amplitudes,
 * one run every 2·lo inside each stretch of `hi`, one stretch every
 * 2·hi. Over whole runs (1-bit) or whole stretches (2-bit) every loop
 * level advances by a constant stride and the innermost loop has a
 * constant trip count, so a run costs no bookkeeping of its own and no
 * loop carries more than an add from one step to the next. Where a
 * range starts or ends inside a run or a stretch (only a blocked
 * partition or a test cuts one there), the walk finishes that part run
 * by run, one bit-deposit per run (per unit when bit 0 is among the
 * bits, whose runs are one unit long). With bit 0 a step moves one
 * unit, 16 bytes per amplitude: a 32-byte vector there would load and
 * store the untouched neighbour too.
 *
 * A step is a functor whose call operator carries the AVX2 target, so
 * the walk templates (also AVX2-targeted) inline it.
 */

/** step(i) at every step of a 1-bit walk over even [k0, k1), s >= 2. */
template <typename Step>
QISMET_TARGET_AVX2 inline void
walk1(std::size_t s, std::size_t k0, std::size_t k1, const Step &step)
{
    std::size_t k = k0;
    if ((k & (s - 1)) != 0) {
        // The rest of the run k0 starts inside.
        const std::size_t end = std::min((k | (s - 1)) + 1, k1);
        const std::size_t i = deposit1(k, s);
        for (std::size_t j = 0; j < end - k; j += 2)
            step(i + j);
        k = end;
    }
    // Whole runs start at unit multiples k of s, at amplitude 2k; the
    // last may stop at k1.
    for (; k < k1; k += s) {
        const std::size_t end = k + std::min(k + s, k1);
        for (std::size_t i = 2 * k; i < end; i += 2)
            step(i);
    }
}

/**
 * step(i) at every step of a 2-bit walk over [k0, k1), bits lo < hi
 * clear in i: two units per step when lo >= 2 (k0, k1 even), one when
 * lo == 1 (then any bounds).
 */
template <typename Step>
QISMET_TARGET_AVX2 inline void
walk2(std::size_t lo, std::size_t hi, std::size_t k0, std::size_t k1,
      const Step &step)
{
    if (hi == 2) {
        // Bits 0 and 1: every unit is a whole 4-tuple, at amplitude 4k.
        for (std::size_t k = k0; k < k1; ++k)
            step(4 * k);
        return;
    }
    const std::size_t per = lo == 1 ? 1 : 2; // units per step
    std::size_t k = k0;
    // Up to `end`, inside the stretch holding unit k: its runs lie lo
    // amplitudes apart, so one bit-deposit finds them all.
    auto runsTo = [&](std::size_t end) QISMET_TARGET_AVX2 {
        if (k >= end)
            return;
        std::size_t i = deposit2(k, lo, hi);
        if (lo == 1) {
            for (; k < end; ++k, i += 2)
                step(i);
            return;
        }
        while (k < end) {
            const std::size_t stop = std::min((k | (lo - 1)) + 1, end);
            for (std::size_t j = 0; j < stop - k; j += 2)
                step(i + j);
            i += stop - k + lo;
            k = stop;
        }
    };
    // A stretch holds hi/2 units; whole ones start at unit multiples k
    // of hi/2, at amplitude 4k.
    const std::size_t block = hi >> 1;
    runsTo(std::min((k0 + block - 1) & ~(block - 1), k1));
    for (; k + block <= k1; k += block)
        for (std::size_t m = 4 * k; m < 4 * k + hi; m += 2 * lo)
            for (std::size_t i = m; i < m + lo; i += per)
                step(i);
    runsTo(k1);
}

/** Dense 2x2 on the units at i and i + s, and their neighbours. */
template <bool Real>
struct Dense1Steps
{
    const Bcast2 &u;
    double *d;
    std::size_t s;

    QISMET_TARGET_AVX2 void operator()(std::size_t i) const
    {
        dense1Step<Real>(u, d + 2 * i, d + 2 * (i + s));
    }
};

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
    walk1(s, k0, k1, Dense1Steps<Real>{u, d, s});
}

/**
 * Dense 4x4 on the units at i, i|bl, i|bm, i|bm|bl and their
 * neighbours: d0..d3 are the amplitudes at offsets 0, bl, bm, bm|bl.
 */
struct Dense2Steps
{
    const Bcast4 &u;
    double *d0;
    double *d1;
    double *d2;
    double *d3;

    QISMET_TARGET_AVX2 void operator()(std::size_t i) const
    {
        dense2Step(u, d0 + 2 * i, d1 + 2 * i, d2 + 2 * i, d3 + 2 * i);
    }
};

/** Exchange the units at da + 2i and db + 2i and their neighbours. */
struct SwapSteps
{
    double *da;
    double *db;

    QISMET_TARGET_AVX2 void operator()(std::size_t i) const
    {
        swapStep(da + 2 * i, db + 2 * i);
    }
};

/**
 * Exchange the single units at da + 2i and db + 2i: CX and SWAP with
 * bit 0 among their qubits, whose exchanged amplitudes are never
 * neighbours of the next step's.
 */
struct SwapUnitSteps
{
    double *da;
    double *db;

    QISMET_TARGET_AVX2 void operator()(std::size_t i) const
    {
        const __m128d va = _mm_loadu_pd(da + 2 * i);
        const __m128d vb = _mm_loadu_pd(db + 2 * i);
        _mm_storeu_pd(da + 2 * i, vb);
        _mm_storeu_pd(db + 2 * i, va);
    }
};

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
    double *d = reinterpret_cast<double *>(a);
    walk2(std::min(bm, bl), std::max(bm, bl), k0, k1,
          Dense2Steps{u, d, d + 2 * bl, d + 2 * bm, d + 2 * (bm | bl)});
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
    walk1(b, k0, k1, SwapSteps{d, d + 2 * b});
}

QISMET_TARGET_AVX2 void
swapPairUnitsAvx2(Complex *a, std::size_t bA, std::size_t bB,
                  std::size_t offA, std::size_t offB, std::size_t k0,
                  std::size_t k1)
{
    const std::size_t lo = std::min(bA, bB);
    const std::size_t hi = std::max(bA, bB);
    double *d = reinterpret_cast<double *>(a);
    if (lo == 1)
        walk2(lo, hi, k0, k1, SwapUnitSteps{d + 2 * offA, d + 2 * offB});
    else
        walk2(lo, hi, k0, k1, SwapSteps{d + 2 * offA, d + 2 * offB});
}

namespace {

/**
 * vpermps controls that put a 4-state block's deinterleaved parts, which
 * unpacklo/hi leave in state order (0, 2, 1, 3), into the order
 * (m ^ x) for m = 0..3, one control per x = 0..3.
 */
alignas(32) constexpr std::int32_t kBlockOrder[4][8] = {
    {0, 1, 4, 5, 2, 3, 6, 7},
    {4, 5, 0, 1, 6, 7, 2, 3},
    {2, 3, 6, 7, 0, 1, 4, 5},
    {6, 7, 2, 3, 4, 5, 0, 1},
};

/**
 * Re and Im of a[p .. p+3] (p a multiple of 4) reordered so slot m holds
 * a[p + (m ^ x)]: the partners of states 4k..4k+3 for group xmask x,
 * when p = (4k ^ x) & ~3.
 */
QISMET_TARGET_AVX2 inline void
loadBlock(const double *d, std::size_t p, std::uint64_t x, __m256d &re,
          __m256d &im)
{
    const __m256i order = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(kBlockOrder[x & 3]));
    const __m256d lo = _mm256_loadu_pd(d + 2 * p);
    const __m256d hi = _mm256_loadu_pd(d + 2 * p + 4);
    re = _mm256_castps_pd(_mm256_permutevar8x32_ps(
        _mm256_castpd_ps(_mm256_unpacklo_pd(lo, hi)), order));
    im = _mm256_castps_pd(_mm256_permutevar8x32_ps(
        _mm256_castpd_ps(_mm256_unpackhi_pd(lo, hi)), order));
}

/**
 * Adds one tile's states [t0, t1) into V lane vectors starting at lane
 * l: per state, each vector gathers its four bases from the tile's rows
 * and adds them, sign-flipped by XOR, into its own accumulator. V
 * independent chains keep the adds from waiting on one another.
 */
template <int V>
QISMET_TARGET_AVX2_POPCNT inline void
addLaneBlock(const PauliLanes &lanes, std::size_t l, std::size_t tb,
             std::size_t t0, std::size_t t1, const double *rows,
             double *acc)
{
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256i high[V];
    __m128i index[V];
    __m256d sum[V];
    for (int v = 0; v < V; ++v) {
        const std::uint64_t *z = lanes.zmasks + l + 4 * v;
        auto sign = [tb](std::uint64_t zmask) {
            return static_cast<long long>(
                static_cast<std::uint64_t>(std::popcount(tb & zmask) & 1)
                << 63);
        };
        high[v] = _mm256_set_epi64x(sign(z[3]), sign(z[2]), sign(z[1]),
                                    sign(z[0]));
        // Base b of a lane sits at rows[b·kPauliTile + (i - tb)].
        index[v] = _mm_slli_epi32(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(lanes.base + l + 4 * v)),
            kPauliSignBits);
        sum[v] = _mm256_loadu_pd(acc + l + 4 * v);
    }
    for (std::size_t i = t0; i < t1; ++i) {
        const double *r = rows + (i - tb);
        const std::uint64_t *low =
            lanes.lowSigns + (i - tb) * lanes.numLanes + l;
        for (int v = 0; v < V; ++v) {
            // The masked form with every lane set: the unmasked
            // intrinsic reads an uninitialized source vector.
            const __m256d base = _mm256_mask_i32gather_pd(
                _mm256_setzero_pd(), r, index[v], all, 8);
            const __m256i s = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(low + 4 * v)),
                high[v]);
            sum[v] = _mm256_add_pd(
                sum[v], _mm256_xor_pd(base, _mm256_castsi256_pd(s)));
        }
    }
    for (int v = 0; v < V; ++v)
        _mm256_storeu_pd(acc + l + 4 * v, sum[v]);
}

} // namespace

/**
 * Lane-per-term Pauli expectation core, one tile of kPauliTile aligned
 * states at a time. First the rows: per group and per aligned block of
 * four states, D and E of the four states at once — the block's and
 * its partners' amplitudes are split into real and imaginary vectors in
 * state order, then D = re·ar + im·ai and E = re·ai − im·ar, each
 * product and sum rounded once (the scalar formula, lane for lane).
 * A block may reach past [u0, u1); its extra states are never added.
 * Then the lanes, four vectors at a time (addLaneBlock). The whole
 * range runs here; the caller guarantees at least four amplitudes.
 */
QISMET_TARGET_AVX2_POPCNT void
pauliLaneSumsAvx2(const Complex *a, const PauliLanes &lanes, std::size_t u0,
                  std::size_t u1, double *acc, double *rows)
{
    const double *d = reinterpret_cast<const double *>(a);
    for (std::size_t t0 = u0; t0 < u1;) {
        const std::size_t tb = t0 & ~(kPauliTile - 1);
        const std::size_t t1 = std::min(u1, tb + kPauliTile);

        const std::size_t b1 = (t1 + 3) & ~std::size_t{3};
        for (std::size_t b = t0 & ~std::size_t{3}; b < b1; b += 4) {
            __m256d ar;
            __m256d ai;
            loadBlock(d, b, 0, ar, ai);
            double *row = rows + (b - tb);
            for (std::size_t g = 0; g < lanes.numGroups; ++g) {
                const std::uint64_t x = lanes.xmasks[g];
                __m256d re;
                __m256d im;
                loadBlock(d, (b ^ x) & ~std::uint64_t{3}, x, re, im);
                _mm256_storeu_pd(row + 2 * g * kPauliTile,
                                 _mm256_add_pd(_mm256_mul_pd(re, ar),
                                               _mm256_mul_pd(im, ai)));
                _mm256_storeu_pd(row + (2 * g + 1) * kPauliTile,
                                 _mm256_sub_pd(_mm256_mul_pd(re, ai),
                                               _mm256_mul_pd(im, ar)));
            }
        }

        std::size_t l = 0;
        for (; l + 16 <= lanes.numLanes; l += 16)
            addLaneBlock<4>(lanes, l, tb, t0, t1, rows, acc);
        switch ((lanes.numLanes - l) / 4) {
          case 3:
            addLaneBlock<3>(lanes, l, tb, t0, t1, rows, acc);
            break;
          case 2:
            addLaneBlock<2>(lanes, l, tb, t0, t1, rows, acc);
            break;
          case 1:
            addLaneBlock<1>(lanes, l, tb, t0, t1, rows, acc);
            break;
          default:
            break;
        }
        t0 = t1;
    }
}

namespace {

/** Bit j set where lane j of `v` is below lane j of `t`. */
QISMET_TARGET_AVX2 inline std::uint64_t
belowMask(__m256i t, __m256i v)
{
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, v))));
}

/**
 * The tally for rows of R vectors (R = 0: the search draw alone). R is
 * a template parameter: with a run-time vector count the loop ran
 * slower than the per-shot loop. Draws and thresholds are below 2^63,
 * so the signed compare is the unsigned one.
 */
template <std::size_t R>
QISMET_TARGET_AVX2 void
tallyRows(const ShotRows &rows, std::size_t shots,
          const qismet::detail::CdfSearch &search, std::uint64_t *counts)
{
    // Locals: a count store could alias the fields of `rows`.
    const std::uint64_t *draws = rows.draws;
    const std::size_t lanes = rows.lanes;
    const std::size_t searchLane = rows.searchLane;
    __m256i t0[R + 1];
    __m256i t1[R + 1];
    for (std::size_t r = 0; r < R; ++r) {
        t0[r] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(rows.below0 + 4 * r));
        t1[r] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(rows.below1 + 4 * r));
    }
    for (std::size_t s = 0; s < shots; ++s) {
        const std::uint64_t *row = draws + s * lanes;
        std::uint64_t flip0 = 0;
        std::uint64_t flip1 = 0;
        for (std::size_t r = 0; r < R; ++r) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + 4 * r));
            flip0 |= belowMask(t0[r], v) << (4 * r);
            flip1 |= belowMask(t1[r], v) << (4 * r);
        }
        const auto ideal =
            static_cast<std::uint64_t>(search.find(row[searchLane]));
        ++counts[ideal ^ ((flip1 & ideal) | (flip0 & ~ideal))];
    }
}

using TallyFn = void (*)(const ShotRows &, std::size_t,
                         const qismet::detail::CdfSearch &, std::uint64_t *);

/** tallyRows<R> at index R, for rows of up to 64 lanes (63 qubits). */
template <std::size_t... R>
constexpr std::array<TallyFn, sizeof...(R)>
tallyTable(std::index_sequence<R...>)
{
    return {&tallyRows<R>...};
}

constexpr auto kTallyRows = tallyTable(std::make_index_sequence<17>{});

} // namespace

void
tallyShotsAvx2(const ShotRows &rows, std::size_t shots,
               const qismet::detail::CdfSearch &search, std::uint64_t *counts)
{
    kTallyRows[rows.lanes / 4](rows, shots, search, counts);
}

} // namespace detail
} // namespace kern
} // namespace qismet

#endif // QISMET_SIMD_X86
