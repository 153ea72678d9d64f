/**
 * @file
 * Portable kernel implementations + SIMD dispatch wrappers.
 *
 * Every scalar loop here is a line-for-line transplant of the pre-SIMD
 * simulator code (statevector.cpp / density_matrix.cpp at the time the
 * kernels were extracted): same formulas, same accumulation order, same
 * special cases. The AVX2 cores (kernels_avx2.cpp) mirror these ops
 * lane-wise. A unit core hands the even-bounded middle of its range to
 * one AVX2 walk and runs an odd end unit here; a run micro-kernel lets
 * its AVX2 core take the longest even prefix and finishes the tail
 * here. Either way no scalar FP executes inside an AVX2-target
 * function, where the compiler could contract it. See kernels.hpp for
 * the full rounding contract.
 */

#include "sim/kernels.hpp"

#include <algorithm>
#include <bit>

#include "common/block_partition.hpp"
#include "sim/compiled_circuit.hpp"

namespace qismet {
namespace kern {

namespace {

using detail::deposit1;
using detail::deposit2;

/* ------------------------------------------------------------------ */
/* Scalar micro-kernels (exact legacy formulas).                       */
/* ------------------------------------------------------------------ */

inline void
dense1RunScalar(Complex *p0, Complex *p1, std::size_t count, const Complex *m)
{
    const Complex u00 = m[0], u01 = m[1], u10 = m[2], u11 = m[3];
    for (std::size_t i = 0; i < count; ++i) {
        const Complex a0 = p0[i];
        const Complex a1 = p1[i];
        p0[i] = u00 * a0 + u01 * a1;
        p1[i] = u10 * a0 + u11 * a1;
    }
}

inline void
dense1RunRealScalar(Complex *p0, Complex *p1, std::size_t count,
                    const Complex *m)
{
    const double r00 = m[0].real(), r01 = m[1].real();
    const double r10 = m[2].real(), r11 = m[3].real();
    for (std::size_t i = 0; i < count; ++i) {
        const Complex a0 = p0[i];
        const Complex a1 = p1[i];
        p0[i] = Complex(r00 * a0.real() + r01 * a1.real(),
                        r00 * a0.imag() + r01 * a1.imag());
        p1[i] = Complex(r10 * a0.real() + r11 * a1.real(),
                        r10 * a0.imag() + r11 * a1.imag());
    }
}

/** 2x2 on interleaved adjacent pairs (the q = 0 case). */
inline void
dense1PairsScalarCore(Complex *p, std::size_t count, const Complex *m)
{
    const Complex u00 = m[0], u01 = m[1], u10 = m[2], u11 = m[3];
    for (std::size_t i = 0; i < count; ++i) {
        const Complex a0 = p[2 * i];
        const Complex a1 = p[2 * i + 1];
        p[2 * i] = u00 * a0 + u01 * a1;
        p[2 * i + 1] = u10 * a0 + u11 * a1;
    }
}

inline void
dense1PairsRealScalarCore(Complex *p, std::size_t count, const Complex *m)
{
    const double r00 = m[0].real(), r01 = m[1].real();
    const double r10 = m[2].real(), r11 = m[3].real();
    for (std::size_t i = 0; i < count; ++i) {
        const Complex a0 = p[2 * i];
        const Complex a1 = p[2 * i + 1];
        p[2 * i] = Complex(r00 * a0.real() + r01 * a1.real(),
                           r00 * a0.imag() + r01 * a1.imag());
        p[2 * i + 1] = Complex(r10 * a0.real() + r11 * a1.real(),
                               r10 * a0.imag() + r11 * a1.imag());
    }
}

inline void
dense2RunScalar(Complex *p0, Complex *p1, Complex *p2, Complex *p3,
                std::size_t count, const Complex *m)
{
    for (std::size_t i = 0; i < count; ++i) {
        const Complex in[4] = {p0[i], p1[i], p2[i], p3[i]};
        Complex out[4];
        for (int r = 0; r < 4; ++r) {
            Complex acc(0.0, 0.0);
            for (int c = 0; c < 4; ++c)
                acc += m[r * 4 + c] * in[c];
            out[r] = acc;
        }
        p0[i] = out[0];
        p1[i] = out[1];
        p2[i] = out[2];
        p3[i] = out[3];
    }
}

/** One 4-tuple at scattered indices (the pLow = 0 case). */
inline void
dense2Quartet(Complex *a, std::size_t base, std::size_t bl, std::size_t bm,
              const Complex *m)
{
    const std::size_t idx[4] = {base, base | bl, base | bm, base | bm | bl};
    Complex in[4];
    for (int c = 0; c < 4; ++c)
        in[c] = a[idx[c]];
    for (int r = 0; r < 4; ++r) {
        Complex acc(0.0, 0.0);
        for (int c = 0; c < 4; ++c)
            acc += m[r * 4 + c] * in[c];
        a[idx[r]] = acc;
    }
}

inline void
scaleRunScalar(Complex *run, Complex d, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        run[i] *= d;
}

inline void
conjPhaseRowScalar(Complex *row, const Complex *phases, Complex rowPhase,
                   std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        row[i] *= rowPhase * std::conj(phases[i]);
}

inline void
swapRunsScalar(Complex *a, Complex *b, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        std::swap(a[i], b[i]);
}

/* ------------------------------------------------------------------ */
/* Scalar unit walks: the range decomposed into contiguous runs (all   */
/* unit addresses below the lowest acted-on qubit are consecutive),    */
/* each fed to a scalar run kernel above.                              */
/* ------------------------------------------------------------------ */

void
dense1UnitsScalar(Complex *a, int q, const Complex *m, bool real,
                  std::size_t k0, std::size_t k1)
{
    if (q == 0) {
        // Units are adjacent (even, odd) amplitude pairs.
        if (real)
            dense1PairsRealScalarCore(a + 2 * k0, k1 - k0, m);
        else
            dense1PairsScalarCore(a + 2 * k0, k1 - k0, m);
        return;
    }
    const std::size_t s = std::size_t{1} << q;
    std::size_t k = k0;
    while (k < k1) {
        const std::size_t off = k & (s - 1);
        const std::size_t len = std::min(s - off, k1 - k);
        const std::size_t i0 = deposit1(k, s);
        if (real)
            dense1RunRealScalar(a + i0, a + i0 + s, len, m);
        else
            dense1RunScalar(a + i0, a + i0 + s, len, m);
        k += len;
    }
}

void
dense2UnitsScalar(Complex *a, int qm, int ql, const Complex *m,
                  std::size_t k0, std::size_t k1)
{
    const std::size_t bm = std::size_t{1} << qm;
    const std::size_t bl = std::size_t{1} << ql;
    const int pLow = qm < ql ? qm : ql;
    if (pLow == 0) {
        // One of the acted-on qubits is bit 0: tuples are scattered,
        // stay scalar (see DESIGN.md — not worth a gather/blend path
        // for the op mix the compiler emits).
        for (std::size_t k = k0; k < k1; ++k)
            dense2Quartet(a, deposit2(k, bm, bl), bl, bm, m);
        return;
    }
    const std::size_t sLow = std::size_t{1} << pLow;
    std::size_t k = k0;
    while (k < k1) {
        const std::size_t off = k & (sLow - 1);
        const std::size_t len = std::min(sLow - off, k1 - k);
        const std::size_t base = deposit2(k, bm, bl);
        dense2RunScalar(a + base, a + (base | bl), a + (base | bm),
                        a + (base | bm | bl), len, m);
        k += len;
    }
}

void
diagUnitsScalar(Complex *a, std::size_t dim, std::uint64_t mask,
                const Complex *table, std::size_t u0, std::size_t u1)
{
    const std::uint64_t comp = (dim - 1) & ~mask;
    const int t = std::popcount(mask);
    const int freeBits = std::countr_zero(dim) - t;
    const std::size_t subSize = std::size_t{1} << freeBits;
    const std::size_t runLen = std::size_t{1} << std::countr_one(comp);
    const Complex one(1.0, 0.0);
    std::size_t u = u0;
    while (u < u1) {
        const std::uint64_t li = u >> freeBits;
        const std::size_t entryBegin = static_cast<std::size_t>(li) * subSize;
        const std::size_t jEnd = std::min(u1, entryBegin + subSize) -
                                 entryBegin;
        const Complex d = table[li];
        if (d == one) { // common for merged CZ/S/T runs
            u = entryBegin + jEnd;
            continue;
        }
        const std::uint64_t fixed = depositBits(li, mask);
        std::size_t j = u - entryBegin;
        while (j < jEnd) {
            const std::size_t off = j & (runLen - 1);
            const std::size_t len = std::min(runLen - off, jEnd - j);
            const std::uint64_t idx = fixed | depositBits(j, comp);
            scaleRunScalar(a + idx, d, len);
            j += len;
        }
        u = entryBegin + jEnd;
    }
}

void
permXUnitsScalar(Complex *a, int q, std::size_t k0, std::size_t k1)
{
    if (q == 0) {
        for (std::size_t k = k0; k < k1; ++k)
            std::swap(a[2 * k], a[2 * k + 1]);
        return;
    }
    const std::size_t b = std::size_t{1} << q;
    std::size_t k = k0;
    while (k < k1) {
        const std::size_t off = k & (b - 1);
        const std::size_t len = std::min(b - off, k1 - k);
        const std::size_t i0 = deposit1(k, b);
        swapRunsScalar(a + i0, a + i0 + b, len);
        k += len;
    }
}

/** The CX and SWAP walk: exchange a[base | offA] and a[base | offB]. */
void
swapPairUnitsScalar(Complex *a, std::size_t bA, std::size_t bB,
                    std::size_t offA, std::size_t offB, std::size_t k0,
                    std::size_t k1)
{
    const std::size_t sLow = bA < bB ? bA : bB;
    if (sLow == 1) {
        for (std::size_t k = k0; k < k1; ++k) {
            const std::size_t base = deposit2(k, bA, bB);
            std::swap(a[base | offA], a[base | offB]);
        }
        return;
    }
    std::size_t k = k0;
    while (k < k1) {
        const std::size_t off = k & (sLow - 1);
        const std::size_t len = std::min(sLow - off, k1 - k);
        const std::size_t base = deposit2(k, bA, bB);
        swapRunsScalar(a + (base | offA), a + (base | offB), len);
        k += len;
    }
}

#if QISMET_SIMD_X86
/**
 * Give an odd unit at either end of [k0, k1) to the scalar `unit(k)`
 * and return the even-bounded middle, which the two-units-per-vector
 * AVX2 walks cover in one call.
 */
template <typename UnitFn>
BlockRange
peelOddEnds(std::size_t k0, std::size_t k1, UnitFn &&unit)
{
    if (k0 < k1 && (k0 & 1) != 0)
        unit(k0++);
    if (k0 < k1 && (k1 & 1) != 0)
        unit(--k1);
    return BlockRange{k0, k1};
}
#endif

} // namespace

/* ------------------------------------------------------------------ */
/* Public contiguous-run micro-kernels (density-matrix sweeps).        */
/* ------------------------------------------------------------------ */

void
dense1Run(Complex *p0, Complex *p1, std::size_t count, const Complex *m,
          bool simd)
{
    std::size_t done = 0;
#if QISMET_SIMD_X86
    if (simd)
        done = detail::dense1RunAvx2(p0, p1, count, m);
#else
    (void)simd;
#endif
    dense1RunScalar(p0 + done, p1 + done, count - done, m);
}

void
dense2Run(Complex *p0, Complex *p1, Complex *p2, Complex *p3,
          std::size_t count, const Complex *m, bool simd)
{
    std::size_t done = 0;
#if QISMET_SIMD_X86
    if (simd)
        done = detail::dense2RunAvx2(p0, p1, p2, p3, count, m);
#else
    (void)simd;
#endif
    dense2RunScalar(p0 + done, p1 + done, p2 + done, p3 + done, count - done,
                    m);
}

void
conjPhaseRow(Complex *row, const Complex *phases, Complex rowPhase,
             std::size_t count, bool simd)
{
    std::size_t done = 0;
#if QISMET_SIMD_X86
    if (simd)
        done = detail::conjPhaseRowAvx2(row, phases, rowPhase, count);
#else
    (void)simd;
#endif
    conjPhaseRowScalar(row + done, phases + done, rowPhase, count - done);
}

/* ------------------------------------------------------------------ */
/* Unit-range cores over an interleaved array.                         */
/*                                                                     */
/* A "unit" is one independent work item: an amplitude pair (dense1 /  */
/* permX), a 4-tuple (dense2 / permCX / permSwap), or one amplitude    */
/* (diag). Each core handles any [k0, k1) sub-range so the blocked     */
/* partition can hand out pieces. With SIMD on, the even-bounded       */
/* middle of the range goes to one AVX2 walk and an odd end unit to    */
/* the scalar walk; units are independent, so the split moves no bit. */
/* ------------------------------------------------------------------ */

void
dense1Units(Complex *a, int q, const Complex *m, bool real, bool simd,
            std::size_t k0, std::size_t k1)
{
#if QISMET_SIMD_X86
    if (simd) {
        const BlockRange mid = peelOddEnds(k0, k1, [&](std::size_t k) {
            dense1UnitsScalar(a, q, m, real, k, k + 1);
        });
        if (mid.begin < mid.end)
            detail::dense1UnitsAvx2(a, q, m, real, mid.begin, mid.end);
        return;
    }
#else
    (void)simd;
#endif
    dense1UnitsScalar(a, q, m, real, k0, k1);
}

void
dense2Units(Complex *a, int qm, int ql, const Complex *m, bool simd,
            std::size_t k0, std::size_t k1)
{
#if QISMET_SIMD_X86
    if (simd && qm != 0 && ql != 0) {
        const BlockRange mid = peelOddEnds(k0, k1, [&](std::size_t k) {
            dense2UnitsScalar(a, qm, ql, m, k, k + 1);
        });
        if (mid.begin < mid.end)
            detail::dense2UnitsAvx2(a, qm, ql, m, mid.begin, mid.end);
        return;
    }
#else
    (void)simd;
#endif
    dense2UnitsScalar(a, qm, ql, m, k0, k1);
}

void
diagUnits(Complex *a, std::size_t dim, std::uint64_t mask,
          const Complex *table, bool simd, std::size_t u0, std::size_t u1)
{
#if QISMET_SIMD_X86
    if (simd && (mask & 1) == 0) {
        const BlockRange mid = peelOddEnds(u0, u1, [&](std::size_t u) {
            diagUnitsScalar(a, dim, mask, table, u, u + 1);
        });
        if (mid.begin < mid.end)
            detail::diagUnitsAvx2(a, dim, mask, table, mid.begin, mid.end);
        return;
    }
#else
    (void)simd;
#endif
    diagUnitsScalar(a, dim, mask, table, u0, u1);
}

void
permXUnits(Complex *a, int q, bool simd, std::size_t k0, std::size_t k1)
{
#if QISMET_SIMD_X86
    if (simd) {
        const BlockRange mid = peelOddEnds(k0, k1, [&](std::size_t k) {
            permXUnitsScalar(a, q, k, k + 1);
        });
        if (mid.begin < mid.end)
            detail::permXUnitsAvx2(a, q, mid.begin, mid.end);
        return;
    }
#else
    (void)simd;
#endif
    permXUnitsScalar(a, q, k0, k1);
}

namespace {

/** permCX and permSwap: the shared exchange walk, SIMD or scalar. */
void
swapPairUnits(Complex *a, std::size_t bA, std::size_t bB, std::size_t offA,
              std::size_t offB, bool simd, std::size_t k0, std::size_t k1)
{
#if QISMET_SIMD_X86
    if (simd) {
        const BlockRange mid = peelOddEnds(k0, k1, [&](std::size_t k) {
            swapPairUnitsScalar(a, bA, bB, offA, offB, k, k + 1);
        });
        if (mid.begin < mid.end)
            detail::swapPairUnitsAvx2(a, bA, bB, offA, offB, mid.begin,
                                      mid.end);
        return;
    }
#else
    (void)simd;
#endif
    swapPairUnitsScalar(a, bA, bB, offA, offB, k0, k1);
}

} // namespace

void
permCXUnits(Complex *a, int qc, int qt, bool simd, std::size_t k0,
            std::size_t k1)
{
    const std::size_t bc = std::size_t{1} << qc;
    const std::size_t bt = std::size_t{1} << qt;
    swapPairUnits(a, bc, bt, bc, bc | bt, simd, k0, k1);
}

void
permSwapUnits(Complex *a, int qa, int qb, bool simd, std::size_t k0,
              std::size_t k1)
{
    const std::size_t ba = std::size_t{1} << qa;
    const std::size_t bb = std::size_t{1} << qb;
    swapPairUnits(a, ba, bb, ba, bb, simd, k0, k1);
}

/* ------------------------------------------------------------------ */
/* Whole-state entry points: blocked partition + SIMD dispatch.        */
/* ------------------------------------------------------------------ */

void
applyDense1(std::span<Complex> amps, int q, const Complex *m)
{
    const bool real = realMatrix2x2(m);
    const bool simd = simdEnabled();
    forEachUnitBlocked(amps.size() >> 1, amps.size(),
                       [&](std::size_t k0, std::size_t k1) {
                           dense1Units(amps.data(), q, m, real, simd, k0,
                                       k1);
                       });
}

void
applyDense2(std::span<Complex> amps, int qm, int ql, const Complex *m)
{
    const bool simd = simdEnabled();
    forEachUnitBlocked(amps.size() >> 2, amps.size(),
                       [&](std::size_t k0, std::size_t k1) {
                           dense2Units(amps.data(), qm, ql, m, simd, k0,
                                       k1);
                       });
}

void
applyDiag(std::span<Complex> amps, std::uint64_t mask, const Complex *table)
{
    const bool simd = simdEnabled();
    forEachUnitBlocked(amps.size(), amps.size(),
                       [&](std::size_t u0, std::size_t u1) {
                           diagUnits(amps.data(), amps.size(), mask, table,
                                     simd, u0, u1);
                       });
}

void
applyPermX(std::span<Complex> amps, int q)
{
    const bool simd = simdEnabled();
    forEachUnitBlocked(amps.size() >> 1, amps.size(),
                       [&](std::size_t k0, std::size_t k1) {
                           permXUnits(amps.data(), q, simd, k0, k1);
                       });
}

void
applyPermCX(std::span<Complex> amps, int qc, int qt)
{
    const bool simd = simdEnabled();
    forEachUnitBlocked(amps.size() >> 2, amps.size(),
                       [&](std::size_t k0, std::size_t k1) {
                           permCXUnits(amps.data(), qc, qt, simd, k0, k1);
                       });
}

void
applyPermSwap(std::span<Complex> amps, int qa, int qb)
{
    const bool simd = simdEnabled();
    forEachUnitBlocked(amps.size() >> 2, amps.size(),
                       [&](std::size_t k0, std::size_t k1) {
                           permSwapUnits(amps.data(), qa, qb, simd, k0, k1);
                       });
}

/* ------------------------------------------------------------------ */
/* Ordered reductions. Scalar arithmetic only: SIMD lanes would change */
/* the summation grouping, which the determinism contract forbids.     */
/* ------------------------------------------------------------------ */

double
norm2(std::span<const Complex> amps)
{
    return orderedBlockReduce(
        amps.size(), amps.size(), [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i)
                s += std::norm(amps[i]);
            return s;
        });
}

Complex
innerProduct(std::span<const Complex> a, std::span<const Complex> b)
{
    return orderedBlockReduceComplex(
        a.size(), a.size(), [&](std::size_t lo, std::size_t hi) {
            Complex acc(0.0, 0.0);
            for (std::size_t i = lo; i < hi; ++i)
                acc += std::conj(a[i]) * b[i];
            return acc;
        });
}

double
expectationZMask(std::span<const Complex> amps, std::uint64_t mask)
{
    return orderedBlockReduce(
        amps.size(), amps.size(), [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) {
                const double p = std::norm(amps[i]);
                const int parity = std::popcount(i & mask) & 1;
                s += parity ? -p : p;
            }
            return s;
        });
}

void
pauliLaneSums(std::span<const Complex> amps, const PauliLanes &lanes,
              bool simd, std::size_t u0, std::size_t u1, double *acc,
              double *rows)
{
#if QISMET_SIMD_X86
    // The AVX2 core reads whole aligned blocks of four states.
    if (simd && amps.size() >= 4) {
        detail::pauliLaneSumsAvx2(amps.data(), lanes, u0, u1, acc, rows);
        return;
    }
#else
    (void)simd;
#endif
    // One state at a time: rows[2g] and rows[2g + 1] hold its D_g, E_g.
    for (std::size_t i = u0; i < u1; ++i) {
        const double ar = amps[i].real();
        const double ai = amps[i].imag();
        for (std::size_t g = 0; g < lanes.numGroups; ++g) {
            const Complex ax = amps[i ^ lanes.xmasks[g]];
            rows[2 * g] = ax.real() * ar + ax.imag() * ai;
            rows[2 * g + 1] = ax.real() * ai - ax.imag() * ar;
        }
        const std::uint64_t *low =
            lanes.lowSigns + (i & (kPauliTile - 1)) * lanes.numLanes;
        const std::uint64_t high = i & ~(kPauliTile - 1);
        for (std::size_t l = 0; l < lanes.numLanes; ++l) {
            const auto parity = static_cast<std::uint64_t>(
                std::popcount(high & lanes.zmasks[l]) & 1);
            const std::uint64_t sign = low[l] ^ (parity << 63);
            acc[l] += std::bit_cast<double>(
                std::bit_cast<std::uint64_t>(rows[lanes.base[l]]) ^ sign);
        }
    }
}

} // namespace kern
} // namespace qismet
