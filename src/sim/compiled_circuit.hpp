/**
 * @file
 * Compiled-circuit execution layer: gate fusion and constant-matrix
 * caching for the simulators.
 *
 * A `CompiledCircuit` lowers a `Circuit` once into a flat op-stream the
 * simulators execute without touching `Gate::matrix` again:
 *
 *  - **Constant folding.** Every constant gate's dense matrix is
 *    resolved at compile time into a shared matrix pool. An op with a
 *    parameterized factor gets a flat recipe per factor instead: at
 *    run time `bind()` re-evaluates only those ops into a caller-owned
 *    scratch pool, so one compiled circuit serves every (θ, thread)
 *    pair.
 *  - **Greedy fusion.** Adjacent 1q gates on the same qubit fuse into a
 *    single 2×2; 1q gates are absorbed into neighbouring 2q ops as 4×4
 *    products (cost-gated — see `CompileOptions::absorb2q`); runs of
 *    commuting diagonal gates (Z/S/T/RZ/CZ...) merge into one
 *    multi-qubit diagonal table applied in a single pass; X·X, CX·CX
 *    and SWAP·SWAP pairs cancel.
 *  - **Kernel classification.** Each op carries a kind tag so the
 *    simulators dispatch to specialized kernels: diagonal ops touch
 *    each amplitude exactly once, permutation ops (X/CX/SWAP) move
 *    amplitudes without arithmetic, and dense 2q ops enumerate their
 *    dim/4 base indices directly via bit-deposit instead of
 *    scan-and-skip.
 *
 * Determinism contract: compilation is a pure function of (circuit,
 * options); executing a compiled circuit is bit-identical run-to-run
 * and at every thread count. Fusion *does* change the floating-point
 * summation order relative to the unfused gate-by-gate path, so
 * results agree with the gate-by-gate path to ~1e-12, not bit-for-bit
 * — golden traces were regenerated once when this layer landed
 * (DESIGN.md §11). The compiled path is the only one the estimator
 * runs; `run(Circuit)` picks between it and the gate-by-gate loop by
 * state size alone (kAutoCompileAmplitudes).
 */

#ifndef QISMET_SIM_COMPILED_CIRCUIT_HPP
#define QISMET_SIM_COMPILED_CIRCUIT_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/matrix.hpp"

namespace qismet {

/** Kernel selector for one compiled op. */
enum class CompiledOpKind : std::uint8_t
{
    Dense1,   ///< Arbitrary 2×2 on one qubit.
    Dense2,   ///< Arbitrary 4×4 on a qubit pair (q0 = most significant).
    Diag,     ///< Diagonal over the qubits in `mask`; matrix = phase table.
    PermX,    ///< Pauli-X: amplitude pair swap.
    PermCX,   ///< Controlled-X: conditional pair swap (q0 = control).
    PermSwap, ///< SWAP: cross-qubit amplitude exchange.
};

/** One executable op of a compiled circuit. */
struct CompiledOp
{
    CompiledOpKind kind = CompiledOpKind::Dense1;
    /** True when the matrix lives in the bind pool, not the const pool. */
    bool parameterized = false;
    /** Acting qubits; q0 is the most-significant local qubit (2q ops). */
    int q0 = 0;
    int q1 = 0;
    /** Diag only: set of acted-on qubits. */
    std::uint64_t mask = 0;
    /**
     * Offset of this op's matrix into the const pool (constant ops) or
     * the bind pool (parameterized ops). Dense1/PermX: 4 entries
     * row-major; Dense2/PermCX/PermSwap: 16; Diag: 2^popcount(mask)
     * phase-table entries indexed by the gathered mask bits (ascending
     * qubit order).
     */
    std::uint32_t offset = 0;
    /** This op's factors: factors()[firstFactor, firstFactor + numFactors). */
    std::uint32_t firstFactor = 0;
    std::uint32_t numFactors = 0;
};

/**
 * One multiplicative factor of a compiled op, in application order: the
 * source gate and, inside a 4x4-wide op (Dense2/PermCX/PermSwap), the
 * half a 1q gate acts on (0 = the op's q0, 1 = its q1; -1 = the full
 * width). Introspection only: bind() evaluates the recipe compiled from
 * it, never the gate.
 */
struct CompiledFactor
{
    Gate gate;
    int sub = -1;
};

/** Fusion-pass accounting, for tests and compile-time introspection. */
struct FusionStats
{
    std::size_t inputGates = 0; ///< Gates in the source circuit (I skipped).
    std::size_t ops = 0;        ///< Compiled ops emitted.
    std::size_t dense1 = 0;
    std::size_t dense2 = 0;
    std::size_t diag = 0;
    std::size_t perm = 0;
    std::size_t cancelled = 0;  ///< Gates removed by X·X / CX·CX / SWAP·SWAP.
};

/** Compilation policy knobs. */
struct CompileOptions
{
    /** Cap on the qubit count of a merged diagonal run (table = 2^n). */
    int maxDiagQubits = 10;

    /**
     * Whether dense 1q gates may absorb a neighbouring CX/SWAP into a
     * dense 4×4 (losing the permutation fast path but saving a memory
     * pass). `Auto` enables it only for wide registers where passes
     * are memory-bound; small states are compute-bound and keep the
     * permutation kernels.
     */
    enum class Absorb2q : std::uint8_t
    {
        Auto,
        Always,
        Never,
    };
    Absorb2q absorb2q = Absorb2q::Auto;

    /** Register width at and above which `Auto` absorbs into 2q ops. */
    int absorb2qAutoWidth = 14;
};

/**
 * A circuit lowered to a flat op-stream with cached matrices.
 *
 * Immutable after construction and safe to share across threads: the
 * parameter-dependent matrices are evaluated by `bind()` into a
 * caller-owned pool, never into the compiled circuit itself.
 */
class CompiledCircuit
{
  public:
    /** Compile `circuit` under the given options. */
    explicit CompiledCircuit(const Circuit &circuit,
                             CompileOptions options = {});

    int numQubits() const { return numQubits_; }
    int numParams() const { return numParams_; }
    const std::vector<CompiledOp> &ops() const { return ops_; }
    const FusionStats &stats() const { return stats_; }
    /** Every op's factors, indexed by CompiledOp::firstFactor. */
    const std::vector<CompiledFactor> &factors() const { return factors_; }

    /** Constant-matrix pool (offsets from constant ops point here). */
    const std::vector<Complex> &constPool() const { return constPool_; }

    /** Entries `bind()` writes; 0 when the circuit has no parameters. */
    std::size_t bindPoolSize() const { return bindPoolSize_; }

    /** True when at least one op depends on a circuit parameter. */
    bool parameterized() const { return bindPoolSize_ != 0; }

    /**
     * Evaluate all parameter-dependent matrices for `params` into
     * `pool` (resized to bindPoolSize()). Each simulator thread owns
     * its own pool, keeping concurrent runs race-free. Each op's matrix
     * is the product of its factors' matrices in application order: the
     * first factor is written as it stands after multiplying onto the
     * identity (in closed form for a rotation), the others multiply in
     * one by one; every factor follows the recipe laid out at compile
     * time (DESIGN.md §11).
     * @throws std::invalid_argument on parameter-count mismatch.
     */
    void bind(const std::vector<double> &params,
              std::vector<Complex> &pool) const;

    /** Matrix storage for `op`, given the pool bind() filled. */
    const Complex *matrixFor(const CompiledOp &op,
                             const std::vector<Complex> &pool) const
    {
        return (op.parameterized ? pool.data() : constPool_.data()) +
               op.offset;
    }

  private:
    /**
     * bind()'s recipe for factors_[i]. A constant factor's matrix was
     * evaluated at compile time into recipeConsts_ (widened to a 4x4
     * inside a 4x4-wide op; a diagonal pair inside a Diag op); a
     * rotation keeps angle = scale * θ[param] + offset; a CZ inside a
     * Diag op keeps the local bits it negates.
     */
    struct FactorRecipe
    {
        enum class Kind : std::uint8_t
        {
            Const,
            RX,
            RY,
            RZ,
            CZ,
        };
        Kind kind = Kind::Const;
        /** As CompiledFactor::sub. */
        std::int8_t sub = -1;
        /** Diag ops: local bit of the factor's qubit (CZ: first qubit). */
        std::uint8_t bit0 = 0;
        /** Diag ops, CZ only: local bit of the second qubit. */
        std::uint8_t bit1 = 0;
        std::uint32_t param = 0;
        double scale = 1.0;
        double offset = 0.0;
        /** Const only: offset of its matrix in recipeConsts_. */
        std::uint32_t consts = 0;
    };

    /** A rotation factor's half-angle, as Gate::matrixInto resolves it. */
    static double halfAngle(const FactorRecipe &r, const double *params);

    /**
     * A rotation factor's 2x2, by Gate::matrixInto's formulas. Kept out
     * of line, so evalOp's products see every factor through memory:
     * inlined, the compiler reorders their NaN operands, which moves
     * the sign and payload of the NaN entries a non-finite angle
     * produces (IEEE 754 leaves both to that order).
     */
    [[gnu::noinline]] static void
    rotationInto(const FactorRecipe &r, const double *params, Complex *m);

    /**
     * A rotation factor's 2x2 times the identity, bit for bit what the
     * complex products give, in closed form: no identity matrix and no
     * complex multiply. A non-finite angle gives NaN in every lane, as
     * the product does.
     */
    static void firstRotationInto(const FactorRecipe &r,
                                  const double *params, Complex *m);

    /** Evaluate `op`'s matrix from its recipes (params unused if constant). */
    void evalOp(const CompiledOp &op, const double *params,
                Complex *out) const;

    int numQubits_ = 0;
    int numParams_ = 0;
    std::vector<CompiledOp> ops_;
    std::vector<CompiledFactor> factors_;
    std::vector<FactorRecipe> recipes_;
    std::vector<Complex> recipeConsts_;
    std::vector<Complex> constPool_;
    std::size_t bindPoolSize_ = 0;
    FusionStats stats_;
};

/**
 * Scatter the low bits of `value` onto the set bits of `mask`
 * (PDEP-style bit deposit). The kernels use this to enumerate the
 * 2^k basis indices spanned by a k-qubit op directly, instead of
 * scanning all dim indices and skipping.
 */
inline std::uint64_t
depositBits(std::uint64_t value, std::uint64_t mask)
{
    std::uint64_t out = 0;
    while (mask != 0) {
        const std::uint64_t low = mask & (~mask + 1);
        if ((value & 1u) != 0u)
            out |= low;
        mask ^= low;
        value >>= 1;
    }
    return out;
}

/**
 * Always true: fusion has no off switch. Kept only for the host-context
 * line of the end-to-end benchmark (e2ebench/src/main.cpp), which
 * prints it.
 */
inline bool
fusionEnabled()
{
    return true;
}

/**
 * Minimum state size (amplitudes for a statevector, elements for a
 * density matrix) at which `run(Circuit)` auto-compiles before
 * executing. Below it the one-shot compile costs more than the sweep it
 * saves, so the per-gate path (applyGate) runs instead. Irrelevant to
 * callers holding a CompiledCircuit, who have already paid the compile.
 */
inline constexpr std::size_t kAutoCompileAmplitudes = 64;

} // namespace qismet

#endif // QISMET_SIM_COMPILED_CIRCUIT_HPP
