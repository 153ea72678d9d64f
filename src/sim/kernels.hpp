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
 * @name Grouped Pauli-sum expectation sweep
 *
 * One Hamiltonian term lowered for the batched single-sweep evaluator
 * (pauli/expectation_plan.hpp): terms sharing an xmask are swept
 * together so the `conj(a[i^xmask])·a[i]` amplitude loads are paid once
 * per group instead of once per term. The per-basis-state phase of a
 * term is ±i^nY — a constant selected by the parity of
 * popcount(i & zmask) — so it is pre-folded into two Complex constants
 * at plan-compile time (computed through the exact op sequence the
 * legacy pauliPhase() used, keeping the products bit-identical).
 * @{
 */
struct PauliTermSpec
{
    std::uint64_t zmask = 0;
    /** Phase for even parity of popcount(i & zmask): i^nY. */
    Complex phasePlus{1.0, 0.0};
    /** Phase for odd parity: -(i^nY). */
    Complex phaseMinus{-1.0, 0.0};
};

/**
 * Most terms the AVX2 group core takes per call (it builds per-term
 * phase-select tables on the stack). The dispatch wrapper slabs larger
 * groups along the term axis — harmless for determinism, since each
 * term owns an independent accumulator.
 */
inline constexpr std::size_t kPauliGroupSlab = 32;

/**
 * Accumulate, for every term t of one xmask group,
 *
 *   acc[t] += Σ_{i in [u0,u1)} Re( conj(a[i^xmask]) · phase_t(i) · a[i] )
 *
 * with phase_t(i) = terms[t].phasePlus/Minus by parity of
 * popcount(i & zmask). Each contribution is formed with the legacy
 * std::complex operation order (two naive complex multiplies, real
 * component kept), and per-term accumulation runs in ascending i, so
 * the result is bit-identical to the term-by-term path. `simd` is the
 * dispatch decision (pass simdEnabled()). Only the real parts are
 * accumulated — the legacy path discards the imaginary accumulator
 * after the sweep, so dropping it cannot change bits.
 */
void pauliGroupSums(std::span<const Complex> amps, std::uint64_t xmask,
                    const PauliTermSpec *terms, std::size_t num_terms,
                    bool simd, std::size_t u0, std::size_t u1, double *acc);

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
std::size_t pauliGroupSumsAvx2(const Complex *a, std::uint64_t xmask,
                               const PauliTermSpec *terms,
                               std::size_t num_terms, std::size_t u0,
                               std::size_t u1, double *acc);

/**
 * AVX2 unit walks: one call covers a whole [k0, k1) range of the
 * matching unit core, two units per vector. k0 and k1 must be even,
 * so every contiguous run inside the range has even length; the
 * 2-qubit walks also need both qubits above bit 0, and diagUnitsAvx2
 * needs bit 0 outside `mask` (otherwise the runs are single units and
 * the cores stay scalar).
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

} // namespace detail

} // namespace kern
} // namespace qismet

#endif // QISMET_SIM_KERNELS_HPP
