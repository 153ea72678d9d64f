#include "sim/density_matrix.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/block_partition.hpp"
#include "sim/kernels.hpp"

namespace qismet {

namespace {

/** out = m† for a row-major w x w matrix. */
void
adjointInto(const Complex *m, int w, Complex *out)
{
    for (int r = 0; r < w; ++r)
        for (int c = 0; c < w; ++c)
            out[c * w + r] = std::conj(m[r * w + c]);
}

using kern::detail::deposit1;
using kern::detail::deposit2;

} // namespace

DensityMatrix::DensityMatrix(int num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits <= 0 || num_qubits > 12)
        throw std::invalid_argument("DensityMatrix: unsupported qubit count");
    dim_ = std::size_t{1} << num_qubits;
    rho_.assign(dim_ * dim_, Complex(0.0, 0.0));
    rho_[0] = Complex(1.0, 0.0);
}

DensityMatrix::DensityMatrix(const Statevector &state)
    : numQubits_(state.numQubits()), dim_(state.dim())
{
    rho_.assign(dim_ * dim_, Complex(0.0, 0.0));
    const auto &amps = state.amplitudes();
    for (std::size_t r = 0; r < dim_; ++r)
        for (std::size_t c = 0; c < dim_; ++c)
            rho_[r * dim_ + c] = amps[r] * std::conj(amps[c]);
}

void
DensityMatrix::reset()
{
    std::fill(rho_.begin(), rho_.end(), Complex(0.0, 0.0));
    rho_[0] = Complex(1.0, 0.0);
}

void
DensityMatrix::checkQubit(int q) const
{
    if (q < 0 || q >= numQubits_)
        throw std::out_of_range("DensityMatrix: qubit out of range");
}

// The ρ sweeps reduce to the same contiguous-run kernels the
// statevector uses: a left-multiply transforms whole row pairs/quads (a
// row is one contiguous run), a right-multiply applies the transposed
// matrix along each row's columns. Rows are the parallel unit — every
// unit touches a disjoint set of rows, so the fixed-block partition
// (common/block_partition.hpp) applies unchanged. Unlike the
// statevector path there is no real-matrix fast path here: the legacy
// loops always ran the complex formula, and bit-compatibility wins over
// the micro-optimization.

void
DensityMatrix::applyLeft1q(int q, const Complex *m,
                           std::vector<Complex> &rho) const
{
    const std::size_t stride = std::size_t{1} << q;
    Complex *base = rho.data();
    const bool simd = simdEnabled();
    forEachUnitBlocked(
        dim_ >> 1, dim_ * dim_, [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                const std::size_t r0 = deposit1(k, stride);
                kern::dense1Run(base + r0 * dim_,
                                base + (r0 + stride) * dim_, dim_, m, simd);
            }
        });
}

void
DensityMatrix::applyRight1q(int q, const Complex *m,
                            std::vector<Complex> &rho) const
{
    // ρM pairs columns (c, c + stride) within each row: apply Mᵀ in
    // dense1 form along the row. Same products, same sums as the
    // column-outer legacy loop — complex add and multiply are
    // element-order-insensitive here, so the traversal swap is exact.
    const Complex mt[4] = {m[0], m[2], m[1], m[3]};
    Complex *base = rho.data();
    const bool simd = simdEnabled();
    forEachUnitBlocked(
        dim_, dim_ * dim_, [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r)
                kern::dense1Units(base + r * dim_, q, mt, /*real=*/false,
                                  simd, 0, dim_ >> 1);
        });
}

void
DensityMatrix::applyLeft2q(int q1, int q0, const Complex *m,
                           std::vector<Complex> &rho) const
{
    const std::size_t b1 = std::size_t{1} << q1;
    const std::size_t b0 = std::size_t{1} << q0;
    Complex *base = rho.data();
    const bool simd = simdEnabled();
    forEachUnitBlocked(
        dim_ >> 2, dim_ * dim_, [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                const std::size_t rb = deposit2(k, b1, b0);
                kern::dense2Run(base + rb * dim_, base + (rb | b0) * dim_,
                                base + (rb | b1) * dim_,
                                base + (rb | b1 | b0) * dim_, dim_, m,
                                simd);
            }
        });
}

void
DensityMatrix::applyRight2q(int q1, int q0, const Complex *m,
                            std::vector<Complex> &rho) const
{
    Complex mt[16];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            mt[c * 4 + r] = m[r * 4 + c];
    Complex *base = rho.data();
    const bool simd = simdEnabled();
    forEachUnitBlocked(
        dim_, dim_ * dim_, [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r)
                kern::dense2Units(base + r * dim_, q1, q0, mt, simd, 0,
                                  dim_ >> 2);
        });
}

void
DensityMatrix::applyGate(const Gate &gate, const std::vector<double> &params)
{
    // Stack storage for the unitary and its adjoint: no per-gate heap
    // allocation on the conjugation path.
    Complex u[16];
    Complex udag[16];
    if (gateArity(gate.type) == 1) {
        checkQubit(gate.qubits[0]);
        gate.matrixInto(u, params);
        adjointInto(u, 2, udag);
        applyLeft1q(gate.qubits[0], u, rho_);
        applyRight1q(gate.qubits[0], udag, rho_);
    } else {
        checkQubit(gate.qubits[0]);
        checkQubit(gate.qubits[1]);
        gate.matrixInto(u, params);
        adjointInto(u, 4, udag);
        applyLeft2q(gate.qubits[0], gate.qubits[1], u, rho_);
        applyRight2q(gate.qubits[0], gate.qubits[1], udag, rho_);
    }
}

void
DensityMatrix::lowerKrausOperators(const KrausChannel &channel, int w)
{
    const auto &ops = channel.operators();
    if (sparseOps_.size() < ops.size()) {
        sparseOps_.resize(ops.size());
        ++scratchAllocs_;
    }
    for (std::size_t o = 0; o < ops.size(); ++o) {
        const Matrix &k = ops[o];
        SparseKraus &s = sparseOps_[o];
        for (int r = 0; r < w; ++r) {
            int nnz = 0;
            for (int c = 0; c < w; ++c) {
                const Complex v = k(static_cast<std::size_t>(r),
                                    static_cast<std::size_t>(c));
                if (v != Complex(0.0, 0.0)) {
                    s.col[r][nnz] = c;
                    s.val[r][nnz] = v;
                    s.cval[r][nnz] = std::conj(v);
                    ++nnz;
                }
            }
            s.nnz[r] = nnz;
        }
    }
}

void
DensityMatrix::applyKrausSum(const std::vector<int> &qubits,
                             const KrausChannel &channel)
{
    // K acts on a fixed 2- or 4-dimensional local subspace, so each
    // (row-block, col-block) tile of ρ maps onto itself:
    //   out[rows[r], cols[c]] = Σ_k Σ_ab K_k[r,a] ρ[rows[a], cols[b]] K̄_k[c,b]
    // Load the tile once, accumulate every operator's contribution
    // through the sparse row forms, and write it back — fully in place,
    // one pass over ρ, no per-channel buffers at all. Noise operators
    // are (near-)Paulis with 1-2 nonzeros per row, so the inner sums
    // collapse accordingly.
    const std::size_t numOps = channel.operators().size();

    if (qubits.size() == 1) {
        lowerKrausOperators(channel, 2);
        const std::size_t b = std::size_t{1} << qubits[0];
        const std::size_t half = dim_ >> 1;
        // Row-block pairs are the parallel unit: each ri owns two whole
        // rows of ρ, so units are disjoint and the blocked partition
        // applies. The tile arithmetic itself stays scalar — the sparse
        // accumulation order is part of the determinism contract.
        forEachUnitBlocked(half, dim_ * dim_, [&](std::size_t ri0,
                                                  std::size_t ri1) {
        for (std::size_t ri = ri0; ri < ri1; ++ri) {
            const std::size_t rb = deposit1(ri, b);
            const std::size_t rows[2] = {rb, rb | b};
            for (std::size_t ci = 0; ci < half; ++ci) {
                const std::size_t cb = deposit1(ci, b);
                const std::size_t cols[2] = {cb, cb | b};
                Complex blk[2][2];
                for (int a = 0; a < 2; ++a)
                    for (int bb = 0; bb < 2; ++bb)
                        blk[a][bb] = rho_[rows[a] * dim_ + cols[bb]];
                Complex out[2][2] = {{Complex(0.0, 0.0), Complex(0.0, 0.0)},
                                     {Complex(0.0, 0.0), Complex(0.0, 0.0)}};
                for (std::size_t o = 0; o < numOps; ++o) {
                    const SparseKraus &s = sparseOps_[o];
                    Complex t[2][2];
                    for (int r = 0; r < 2; ++r) {
                        t[r][0] = t[r][1] = Complex(0.0, 0.0);
                        for (int e = 0; e < s.nnz[r]; ++e) {
                            const Complex v = s.val[r][e];
                            const int a = s.col[r][e];
                            t[r][0] += v * blk[a][0];
                            t[r][1] += v * blk[a][1];
                        }
                    }
                    for (int c = 0; c < 2; ++c)
                        for (int e = 0; e < s.nnz[c]; ++e) {
                            const Complex cv = s.cval[c][e];
                            const int bb = s.col[c][e];
                            out[0][c] += t[0][bb] * cv;
                            out[1][c] += t[1][bb] * cv;
                        }
                }
                for (int r = 0; r < 2; ++r)
                    for (int c = 0; c < 2; ++c)
                        rho_[rows[r] * dim_ + cols[c]] = out[r][c];
            }
        }
        });
        return;
    }

    lowerKrausOperators(channel, 4);
    const std::size_t b1 = std::size_t{1} << qubits[0];
    const std::size_t b0 = std::size_t{1} << qubits[1];
    const std::size_t quarter = dim_ >> 2;
    forEachUnitBlocked(quarter, dim_ * dim_, [&](std::size_t ri0,
                                                 std::size_t ri1) {
    for (std::size_t ri = ri0; ri < ri1; ++ri) {
        const std::size_t rb = deposit2(ri, b1, b0);
        const std::size_t rows[4] = {rb, rb | b0, rb | b1, rb | b1 | b0};
        for (std::size_t ci = 0; ci < quarter; ++ci) {
            const std::size_t cb = deposit2(ci, b1, b0);
            const std::size_t cols[4] = {cb, cb | b0, cb | b1, cb | b1 | b0};
            Complex blk[4][4];
            for (int a = 0; a < 4; ++a)
                for (int bb = 0; bb < 4; ++bb)
                    blk[a][bb] = rho_[rows[a] * dim_ + cols[bb]];
            Complex out[4][4];
            for (int r = 0; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    out[r][c] = Complex(0.0, 0.0);
            for (std::size_t o = 0; o < numOps; ++o) {
                const SparseKraus &s = sparseOps_[o];
                Complex t[4][4];
                for (int r = 0; r < 4; ++r) {
                    t[r][0] = t[r][1] = t[r][2] = t[r][3] =
                        Complex(0.0, 0.0);
                    for (int e = 0; e < s.nnz[r]; ++e) {
                        const Complex v = s.val[r][e];
                        const int a = s.col[r][e];
                        for (int bb = 0; bb < 4; ++bb)
                            t[r][bb] += v * blk[a][bb];
                    }
                }
                for (int c = 0; c < 4; ++c)
                    for (int e = 0; e < s.nnz[c]; ++e) {
                        const Complex cv = s.cval[c][e];
                        const int bb = s.col[c][e];
                        for (int r = 0; r < 4; ++r)
                            out[r][c] += t[r][bb] * cv;
                    }
            }
            for (int r = 0; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    rho_[rows[r] * dim_ + cols[c]] = out[r][c];
        }
    }
    });
}

void
DensityMatrix::applyChannel1q(int q, const KrausChannel &channel)
{
    checkQubit(q);
    if (channel.numQubits() != 1)
        throw std::invalid_argument("applyChannel1q: channel is not 1-qubit");
    applyKrausSum({q}, channel);
}

void
DensityMatrix::applyChannel2q(int q1, int q0, const KrausChannel &channel)
{
    checkQubit(q1);
    checkQubit(q0);
    if (q1 == q0)
        throw std::invalid_argument("applyChannel2q: equal qubits");
    if (channel.numQubits() != 2)
        throw std::invalid_argument("applyChannel2q: channel is not 2-qubit");
    applyKrausSum({q1, q0}, channel);
}

void
DensityMatrix::run(const Circuit &circuit, const std::vector<double> &params)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("DensityMatrix::run: width mismatch");
    // Same amortization rule as Statevector::run, against the dim^2
    // elements a density-matrix sweep touches.
    if (dim_ * dim_ >= kAutoCompileAmplitudes) {
        run(CompiledCircuit(circuit), params);
        return;
    }
    for (const Gate &g : circuit.gates())
        applyGate(g, params);
}

void
DensityMatrix::run(const CompiledCircuit &circuit,
                   const std::vector<double> &params)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("DensityMatrix::run: width mismatch");
    if (circuit.parameterized()) {
        if (bindPool_.capacity() < circuit.bindPoolSize())
            ++scratchAllocs_;
        circuit.bind(params, bindPool_);
    }
    Complex adj[16];
    for (const CompiledOp &op : circuit.ops()) {
        const Complex *m = circuit.matrixFor(op, bindPool_);
        switch (op.kind) {
          case CompiledOpKind::Dense1:
          case CompiledOpKind::PermX:
            adjointInto(m, 2, adj);
            applyLeft1q(op.q0, m, rho_);
            applyRight1q(op.q0, adj, rho_);
            break;
          case CompiledOpKind::Dense2:
          case CompiledOpKind::PermCX:
          case CompiledOpKind::PermSwap:
            adjointInto(m, 4, adj);
            applyLeft2q(op.q0, op.q1, m, rho_);
            applyRight2q(op.q0, op.q1, adj, rho_);
            break;
          case CompiledOpKind::Diag:
            applyDiagConjugation(op.mask, m);
            break;
        }
    }
}

void
DensityMatrix::applyDiagConjugation(std::uint64_t mask, const Complex *table)
{
    // Expand the op's phase table to a per-row phase vector once, then
    // sweep ρ a single time: ρ[r,c] *= d[r] * conj(d[c]).
    if (diagPhase_.capacity() < dim_)
        ++scratchAllocs_;
    diagPhase_.resize(dim_);
    const std::uint64_t comp = (dim_ - 1) & ~mask;
    const int t = std::popcount(mask);
    const std::uint64_t entries = std::uint64_t{1} << t;
    for (std::uint64_t li = 0; li < entries; ++li) {
        const Complex d = table[li];
        const std::uint64_t fixed = depositBits(li, mask);
        std::uint64_t s = 0;
        do {
            diagPhase_[fixed | s] = d;
            s = (s - comp) & comp;
        } while (s != 0);
    }
    const bool simd = simdEnabled();
    forEachUnitBlocked(
        dim_, dim_ * dim_, [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r)
                kern::conjPhaseRow(rho_.data() + r * dim_,
                                   diagPhase_.data(), diagPhase_[r], dim_,
                                   simd);
        });
}

double
DensityMatrix::trace() const
{
    return orderedBlockReduceComplex(
               dim_, dim_,
               [&](std::size_t lo, std::size_t hi) {
                   Complex t(0.0, 0.0);
                   for (std::size_t i = lo; i < hi; ++i)
                       t += rho_[i * dim_ + i];
                   return t;
               })
        .real();
}

double
DensityMatrix::purity() const
{
    // Tr(ρ²) = Σ_rc ρ[r,c] ρ[c,r]; ρ is Hermitian so this is Σ |ρ[r,c]|².
    return orderedBlockReduce(
        rho_.size(), rho_.size(), [&](std::size_t lo, std::size_t hi) {
            double s = 0.0;
            for (std::size_t i = lo; i < hi; ++i)
                s += std::norm(rho_[i]);
            return s;
        });
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> p(dim_);
    for (std::size_t i = 0; i < dim_; ++i)
        p[i] = rho_[i * dim_ + i].real();
    return p;
}

double
DensityMatrix::fidelity(const Statevector &reference) const
{
    if (reference.dim() != dim_)
        throw std::invalid_argument("DensityMatrix::fidelity: width");
    const auto &amps = reference.amplitudes();
    // Blocked by row range: within a block the row-major summation order
    // is the legacy one, and the block partials fold in fixed order.
    return orderedBlockReduceComplex(
               dim_, dim_ * dim_,
               [&](std::size_t r0, std::size_t r1) {
                   Complex acc(0.0, 0.0);
                   for (std::size_t r = r0; r < r1; ++r)
                       for (std::size_t c = 0; c < dim_; ++c)
                           acc += std::conj(amps[r]) * rho_[r * dim_ + c] *
                                  amps[c];
                   return acc;
               })
        .real();
}

double
DensityMatrix::expectation(const Matrix &observable) const
{
    if (observable.rows() != dim_ || observable.cols() != dim_)
        throw std::invalid_argument("DensityMatrix::expectation: shape");
    // Tr(ρ O) = Σ_rc ρ[r,c] O[c,r].
    return orderedBlockReduceComplex(
               dim_, dim_ * dim_,
               [&](std::size_t r0, std::size_t r1) {
                   Complex acc(0.0, 0.0);
                   for (std::size_t r = r0; r < r1; ++r)
                       for (std::size_t c = 0; c < dim_; ++c)
                           acc += rho_[r * dim_ + c] * observable(c, r);
                   return acc;
               })
        .real();
}

} // namespace qismet
