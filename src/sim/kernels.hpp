/**
 * @file
 * Vectorized + block-parallel simulation kernels.
 *
 * These are the hot inner loops of the compiled-circuit engine
 * (DESIGN.md "SIMD + intra-state parallelism"): dense 2x2/4x4 gate
 * application, merged diagonal tables, amplitude permutations, and the
 * ordered reductions (norms, inner products, Z-mask expectations). The
 * `apply*` entry points split the state across the global
 * ParallelExecutor in fixed blocks (common/block_partition.hpp) and
 * dispatch each block's inner loop to either the AVX2 or the portable
 * scalar implementation (common/simd.hpp).
 *
 * ## Rounding contract
 *
 * FP contraction is **off** on every path. Both implementations execute
 * the same IEEE-754 operations in the same order:
 *
 *   - complex multiply is the naive form `(xr*yr - xi*yi,
 *     xr*yi + xi*yr)` — two multiplies, one add/sub per component, each
 *     rounded individually, exactly what the pre-SIMD std::complex code
 *     produced for finite values (operand order inside a product or a
 *     commutative add may differ between lanes and scalar code; IEEE
 *     multiply and add are commutative bit-for-bit, so this is still
 *     identical);
 *   - real-matrix 2x2 fast path: `r00*a0 + r01*a1` componentwise, as
 *     before;
 *   - 4x4 rows accumulate from an explicit zero in column order, as
 *     before;
 *   - diagonal entries equal to exactly 1+0i are skipped, not
 *     multiplied, as before (multiplying by one can flip a -0.0).
 *
 * Consequently SIMD-on, SIMD-off and every thread count produce
 * bit-identical amplitudes, and all of them match the legacy
 * gate-by-gate loops bit-for-bit on finite data — pinned by
 * tests/sim/test_kernel_equivalence.cpp and the golden replays.
 *
 * Amplitudes are one interleaved `std::complex<double>` array (the
 * simulators' own storage): the gate kernels take a mutable
 * `std::span<Complex>`, the reductions a `std::span<const Complex>`.
 *
 * The contiguous-run micro-kernels (`dense1Run`, `dense2Run`,
 * `conjPhaseRow`) serve the density-matrix sweeps, whose row/column
 * structure reduces to dual/quad-stream inner loops.
 */

#ifndef QISMET_SIM_KERNELS_HPP
#define QISMET_SIM_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/matrix.hpp"
#include "common/simd.hpp"

namespace qismet {

namespace detail {
class CdfSearch;
} // namespace detail

namespace kern {

/** @name Whole-state kernels (blocked/parallel + SIMD dispatch) @{ */

/** Apply a dense 2x2 (row-major m[4]) to qubit q. */
void applyDense1(std::span<Complex> amps, int q, const Complex *m);

/** Apply a dense 4x4 (row-major m[16]) to (qm, ql), qm most significant. */
void applyDense2(std::span<Complex> amps, int qm, int ql, const Complex *m);

/**
 * Apply a diagonal phase table over the qubits in `mask` (table entry
 * index = gathered mask bits, ascending qubit order).
 */
void applyDiag(std::span<Complex> amps, std::uint64_t mask,
               const Complex *table);

/** Pauli-X on qubit q (amplitude pair swap). */
void applyPermX(std::span<Complex> amps, int q);

/** CX with control qc, target qt (conditional pair swap). */
void applyPermCX(std::span<Complex> amps, int qc, int qt);

/** SWAP of qubits qa, qb (cross-qubit amplitude exchange). */
void applyPermSwap(std::span<Complex> amps, int qa, int qb);

/** @} */

/** @name Ordered reductions (scalar arithmetic, fixed-block fold) @{ */

/** Sum of |a_i|^2. */
double norm2(std::span<const Complex> amps);

/** <a|b> = sum conj(a_i) b_i; spans must have equal size. */
Complex innerProduct(std::span<const Complex> a, std::span<const Complex> b);

/** <Z_mask>: parity-signed probability sum. */
double expectationZMask(std::span<const Complex> amps, std::uint64_t mask);

/** @} */

/**
 * @name Lane-per-term Pauli-sum expectation sweep
 *
 * The sweep behind ExpectationPlan::termExpectations (DESIGN.md §16).
 * Every Pauli phase i^nY is ±1 or ±i, so term t's addend at basis state
 * i is ±D_g(i) or ±E_g(i) of its xmask group g:
 *
 *   D_g(i) = Re a[i^x]·Re a[i] + Im a[i^x]·Im a[i]
 *   E_g(i) = Re a[i^x]·Im a[i] − Im a[i^x]·Re a[i]
 *
 * with the sign set by the phase and by parity(i & z_t). One pass over
 * the amplitudes forms D and E of every group, then adds each term's
 * base, sign-flipped, into the term's own accumulator lane, in
 * ascending i.
 * @{
 */

/** Low bits of i whose sign pattern is tabled (a tile of 16 states). */
inline constexpr unsigned kPauliSignBits = 4;
inline constexpr std::size_t kPauliTile = std::size_t{1} << kPauliSignBits;

/** A compiled sum's lane layout (pauli/expectation_plan.hpp). */
struct PauliLanes
{
    /** xmask per group. */
    const std::uint64_t *xmasks = nullptr;
    std::size_t numGroups = 0;
    /** Per lane: its base, 2g for D_g or 2g + 1 for E_g. */
    const std::int32_t *base = nullptr;
    /** Per lane: zmask (its bits above kPauliSignBits sign a tile). */
    const std::uint64_t *zmasks = nullptr;
    /**
     * [j·numLanes + l]: lane l's sign bit (bit 63) at states i with
     * i mod kPauliTile == j — the phase's sign XOR parity(j & z_l).
     */
    const std::uint64_t *lowSigns = nullptr;
    /** A multiple of 4; pad lanes read base 0 and are never read back. */
    std::size_t numLanes = 0;
};

/** Doubles of scratch pauliLaneSums needs: a tile of every base. */
inline std::size_t
pauliRowScratch(const PauliLanes &lanes)
{
    return kPauliTile * 2 * lanes.numGroups;
}

/**
 * acc[l] += Σ_{i in [u0,u1)} ±base_l(i), per lane l in ascending i.
 * `rows` is pauliRowScratch(lanes) doubles of scratch. Scalar and AVX2
 * add the same values in the same order, so the sums are bit-identical
 * at every `simd` setting and every range split.
 */
void pauliLaneSums(std::span<const Complex> amps, const PauliLanes &lanes,
                   bool simd, std::size_t u0, std::size_t u1, double *acc,
                   double *rows);

/** @} */

/**
 * @name Shot tally
 *
 * The vector half of ShotSampler's draw-ahead loop (DESIGN.md §17).
 * The sampler draws a block of shots' numbers ahead, in stream order,
 * one row of `lanes` integers per shot: qubit q's readout-trial draw at
 * lane q (0 where q does not draw), the shot's search draw at lane
 * `searchLane`, 0 in the rest. A drawing qubit's two trial thresholds
 * (detail::trialThreshold of p10 and p01) sit at its lane of `below0`
 * and `below1`; every other lane's are 0, and no draw is below 0.
 * @{
 */

/** A block of pre-drawn shots and its readout thresholds. */
struct ShotRows
{
    /** The rows, `lanes` apart. */
    const std::uint64_t *draws = nullptr;
    /** A multiple of 4 when any qubit draws; 1 (the search) when none. */
    std::size_t lanes = 0;
    /** The lane of the search draw: the highest drawing qubit + 1. */
    std::size_t searchLane = 0;
    /** `lanes` thresholds each, for ideal bit 0 and ideal bit 1. */
    const std::uint64_t *below0 = nullptr;
    const std::uint64_t *below1 = nullptr;
};

/** @} */

/**
 * @name Contiguous-run micro-kernels
 *
 * Serial building blocks of the density-matrix sweeps. `simd` is the
 * dispatch decision, resolved once per sweep by the caller (pass
 * `simdEnabled()`).
 * @{
 */

/**
 * 2x2 across two contiguous runs: (p0[i], p1[i]) <- m * (p0[i], p1[i])
 * for i in [0, count).
 */
void dense1Run(Complex *p0, Complex *p1, std::size_t count, const Complex *m,
               bool simd);

/** 4x4 across four contiguous runs, local order (p0,p1,p2,p3). */
void dense2Run(Complex *p0, Complex *p1, Complex *p2, Complex *p3,
               std::size_t count, const Complex *m, bool simd);

/** row[i] *= rowPhase * conj(phases[i]) — diagonal conjugation row. */
void conjPhaseRow(Complex *row, const Complex *phases, Complex rowPhase,
                  std::size_t count, bool simd);

/** @} */

/**
 * @name Unit-range cores
 *
 * One "unit" is an independent work item: an amplitude pair (dense1 /
 * permX), a 4-tuple (dense2 / permCX / permSwap), or one amplitude
 * (diag). Each core handles an arbitrary [k0, k1) sub-range so the
 * blocked partition can hand out pieces; the density-matrix sweeps call
 * them serially per row with transposed matrices. With `simd` set a
 * core makes at most one AVX2 call per range: that call walks every
 * contiguous run two units per vector, and an odd unit at either end
 * of the range runs the scalar formula instead.
 * @{
 */

/**
 * True when every entry of the 2x2 `m` has a zero imaginary part (H, RY,
 * X-basis changes): dense1Units' `real` flag, which halves the
 * multiplies.
 */
inline bool
realMatrix2x2(const Complex *m)
{
    return m[0].imag() == 0.0 && m[1].imag() == 0.0 && m[2].imag() == 0.0 &&
           m[3].imag() == 0.0;
}

/** Dense 2x2 over pair range; `real` selects the real-matrix fast path. */
void dense1Units(Complex *a, int q, const Complex *m, bool real, bool simd,
                 std::size_t k0, std::size_t k1);

/** Dense 4x4 over 4-tuple range (qm most significant local bit). */
void dense2Units(Complex *a, int qm, int ql, const Complex *m, bool simd,
                 std::size_t k0, std::size_t k1);

/** Diagonal table over amplitude range [u0, u1) of a dim-sized state. */
void diagUnits(Complex *a, std::size_t dim, std::uint64_t mask,
               const Complex *table, bool simd, std::size_t u0,
               std::size_t u1);

/** X pair-swap over pair range. */
void permXUnits(Complex *a, int q, bool simd, std::size_t k0, std::size_t k1);

/** CX conditional swap over 4-tuple range. */
void permCXUnits(Complex *a, int qc, int qt, bool simd, std::size_t k0,
                 std::size_t k1);

/** SWAP exchange over 4-tuple range. */
void permSwapUnits(Complex *a, int qa, int qb, bool simd, std::size_t k0,
                   std::size_t k1);

/** @} */

namespace detail {

/** k-th index with bit `b` clear, counting upward (bit-deposit). */
inline std::size_t
deposit1(std::size_t k, std::size_t b)
{
    return (k & (b - 1)) | ((k << 1) & ~((b << 1) - 1));
}

/** k-th index with bits bA|bB clear, counting upward. */
inline std::size_t
deposit2(std::size_t k, std::size_t bA, std::size_t bB)
{
    const std::size_t lo = bA < bB ? bA : bB;
    const std::size_t hi = bA < bB ? bB : bA;
    const std::size_t mLow = lo - 1;
    const std::size_t mMid = (hi - 1) & ~((lo << 1) - 1);
    const std::size_t mHigh = ~((hi << 1) - 1);
    return (k & mLow) | ((k << 1) & mMid) | ((k << 2) & mHigh);
}

/**
 * AVX2 cores, compiled with per-function target("avx2,fma") attributes
 * when QISMET_SIMD_X86; call only when simdAvailable(). No scalar FP
 * ever executes inside an AVX2-target function (where the compiler
 * would be free to contract it): the run kernels process the longest
 * even prefix and return the units completed, and the portable
 * wrappers finish the tail with the scalar code.
 */
std::size_t dense1RunAvx2(Complex *p0, Complex *p1, std::size_t count,
                          const Complex *m);
std::size_t dense2RunAvx2(Complex *p0, Complex *p1, Complex *p2, Complex *p3,
                          std::size_t count, const Complex *m);
std::size_t conjPhaseRowAvx2(Complex *row, const Complex *phases,
                             Complex rowPhase, std::size_t count);
void pauliLaneSumsAvx2(const Complex *a, const PauliLanes &lanes,
                       std::size_t u0, std::size_t u1, double *acc,
                       double *rows);

/**
 * AVX2 unit walks: one call covers a whole [k0, k1) range of the
 * matching unit core as a flat nested loop, two units per vector. k0
 * and k1 must be even, so every contiguous run inside the range has
 * even length. dense2UnitsAvx2 needs both qubits above bit 0 and
 * diagUnitsAvx2 needs bit 0 outside `mask` (otherwise the runs are
 * single units and those cores stay scalar); swapPairUnitsAvx2 takes
 * bit 0 too, one unit per step.
 */
void dense1UnitsAvx2(Complex *a, int q, const Complex *m, bool real,
                     std::size_t k0, std::size_t k1);
void dense2UnitsAvx2(Complex *a, int qm, int ql, const Complex *m,
                     std::size_t k0, std::size_t k1);
void diagUnitsAvx2(Complex *a, std::size_t dim, std::uint64_t mask,
                   const Complex *table, std::size_t u0, std::size_t u1);
void permXUnitsAvx2(Complex *a, int q, std::size_t k0, std::size_t k1);
/**
 * The CX and SWAP walk: for each 4-tuple base (bits bA|bB clear),
 * exchange a[base | offA] and a[base | offB].
 */
void swapPairUnitsAvx2(Complex *a, std::size_t bA, std::size_t bB,
                       std::size_t offA, std::size_t offB, std::size_t k0,
                       std::size_t k1);

/**
 * Tally the first `shots` rows of `rows`: per row, the flip masks from 64-bit compares of every lane against both
 * thresholds (bit q where lane q's draw is below below0[q] and
 * below1[q]), the ideal outcome from `search` at the search lane, and
 * one count at the ideal outcome with the flips its bits select, in
 * counts[]. Integer only.
 */
void tallyShotsAvx2(const ShotRows &rows, std::size_t shots,
                    const qismet::detail::CdfSearch &search,
                    std::uint64_t *counts);

} // namespace detail

} // namespace kern
} // namespace qismet

#endif // QISMET_SIM_KERNELS_HPP
