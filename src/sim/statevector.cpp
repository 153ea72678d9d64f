#include "sim/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/block_partition.hpp"
#include "common/simd.hpp"
#include "sim/cdf_search.hpp"
#include "sim/kernels.hpp"

namespace qismet {

Statevector::Statevector(int num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits <= 0 || num_qubits > 28)
        throw std::invalid_argument("Statevector: unsupported qubit count");
    amps_.assign(std::size_t{1} << num_qubits, Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
}

Statevector::Statevector(std::vector<Complex> amplitudes)
    : amps_(std::move(amplitudes))
{
    if (amps_.empty() || (amps_.size() & (amps_.size() - 1)) != 0)
        throw std::invalid_argument(
            "Statevector: amplitude count must be a power of two");
    numQubits_ = static_cast<int>(std::bit_width(amps_.size())) - 1;
}

void
Statevector::reset()
{
    std::fill(amps_.begin(), amps_.end(), Complex(0.0, 0.0));
    amps_[0] = Complex(1.0, 0.0);
    invalidateCache();
}

void
Statevector::checkQubit(int q) const
{
    if (q < 0 || q >= numQubits_)
        throw std::out_of_range("Statevector: qubit out of range");
}

void
Statevector::apply1q(int q, const Matrix &u)
{
    checkQubit(q);
    if (u.rows() != 2 || u.cols() != 2)
        throw std::invalid_argument("Statevector::apply1q: matrix not 2x2");
    invalidateCache();

    const std::uint64_t stride = std::uint64_t{1} << q;
    const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);

    for (std::uint64_t base = 0; base < amps_.size(); base += 2 * stride) {
        for (std::uint64_t offset = 0; offset < stride; ++offset) {
            const std::uint64_t i0 = base + offset;
            const std::uint64_t i1 = i0 + stride;
            const Complex a0 = amps_[i0];
            const Complex a1 = amps_[i1];
            amps_[i0] = u00 * a0 + u01 * a1;
            amps_[i1] = u10 * a0 + u11 * a1;
        }
    }
}

void
Statevector::apply2q(int q1, int q0, const Matrix &u)
{
    checkQubit(q1);
    checkQubit(q0);
    if (q1 == q0)
        throw std::invalid_argument("Statevector::apply2q: equal qubits");
    if (u.rows() != 4 || u.cols() != 4)
        throw std::invalid_argument("Statevector::apply2q: matrix not 4x4");
    invalidateCache();

    const std::uint64_t b1 = std::uint64_t{1} << q1;
    const std::uint64_t b0 = std::uint64_t{1} << q0;

    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
        if (i & (b1 | b0))
            continue; // visit each 4-tuple once, from its 00 member
        // Local index: bit1 = qubit q1 state, bit0 = qubit q0 state.
        const std::uint64_t idx[4] = {i, i | b0, i | b1, i | b1 | b0};
        Complex in[4];
        for (int k = 0; k < 4; ++k)
            in[k] = amps_[idx[k]];
        for (int r = 0; r < 4; ++r) {
            Complex acc(0.0, 0.0);
            for (int c = 0; c < 4; ++c)
                acc += u(r, c) * in[c];
            amps_[idx[r]] = acc;
        }
    }
}

void
Statevector::applyGate(const Gate &gate, const std::vector<double> &params)
{
    invalidateCache();
    // Fast paths for the common entanglers; everything else goes through
    // the dense matrix.
    switch (gate.type) {
      case GateType::I:
        return;
      case GateType::CX: {
        const std::uint64_t cbit = std::uint64_t{1} << gate.qubits[0];
        const std::uint64_t tbit = std::uint64_t{1} << gate.qubits[1];
        for (std::uint64_t i = 0; i < amps_.size(); ++i) {
            if ((i & cbit) && !(i & tbit))
                std::swap(amps_[i], amps_[i | tbit]);
        }
        return;
      }
      case GateType::CZ: {
        const std::uint64_t mask =
            (std::uint64_t{1} << gate.qubits[0]) |
            (std::uint64_t{1} << gate.qubits[1]);
        for (std::uint64_t i = 0; i < amps_.size(); ++i) {
            if ((i & mask) == mask)
                amps_[i] = -amps_[i];
        }
        return;
      }
      case GateType::SWAP: {
        const std::uint64_t a = std::uint64_t{1} << gate.qubits[0];
        const std::uint64_t b = std::uint64_t{1} << gate.qubits[1];
        for (std::uint64_t i = 0; i < amps_.size(); ++i) {
            if ((i & a) && !(i & b))
                std::swap(amps_[i], amps_[(i ^ a) | b]);
        }
        return;
      }
      default:
        break;
    }

    if (gateArity(gate.type) == 1) {
        apply1q(gate.qubits[0], gate.matrix(params));
    } else {
        apply2q(gate.qubits[0], gate.qubits[1], gate.matrix(params));
    }
}

void
Statevector::run(const Circuit &circuit, const std::vector<double> &params)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("Statevector::run: width mismatch");
    // One-shot compile only pays for itself once the per-gate sweep
    // touches enough amplitudes; below that the legacy loop wins.
    // Callers that rerun a circuit should hold a CompiledCircuit (the
    // energy estimator does), which always uses the fused kernels.
    if (amps_.size() >= kAutoCompileAmplitudes) {
        run(CompiledCircuit(circuit), params);
        return;
    }
    for (const Gate &g : circuit.gates())
        applyGate(g, params);
}

namespace {

/**
 * Apply `op` to the dim amplitudes at `a` through `each(units, core)`,
 * which runs core(k0, k1) over [0, units). `simd` is the run's dispatch
 * decision.
 */
template <typename Each>
void
applyOp(Complex *a, std::size_t dim, const CompiledOp &op, const Complex *m,
        bool simd, const Each &each)
{
    switch (op.kind) {
      case CompiledOpKind::Dense1: {
        const bool real = kern::realMatrix2x2(m);
        each(dim >> 1, [&](std::size_t k0, std::size_t k1) {
            kern::dense1Units(a, op.q0, m, real, simd, k0, k1);
        });
        return;
      }
      case CompiledOpKind::Dense2:
        each(dim >> 2, [&](std::size_t k0, std::size_t k1) {
            kern::dense2Units(a, op.q0, op.q1, m, simd, k0, k1);
        });
        return;
      case CompiledOpKind::Diag:
        each(dim, [&](std::size_t u0, std::size_t u1) {
            kern::diagUnits(a, dim, op.mask, m, simd, u0, u1);
        });
        return;
      case CompiledOpKind::PermX:
        each(dim >> 1, [&](std::size_t k0, std::size_t k1) {
            kern::permXUnits(a, op.q0, simd, k0, k1);
        });
        return;
      case CompiledOpKind::PermCX:
        each(dim >> 2, [&](std::size_t k0, std::size_t k1) {
            kern::permCXUnits(a, op.q0, op.q1, simd, k0, k1);
        });
        return;
      case CompiledOpKind::PermSwap:
        each(dim >> 2, [&](std::size_t k0, std::size_t k1) {
            kern::permSwapUnits(a, op.q0, op.q1, simd, k0, k1);
        });
        return;
    }
}

} // namespace

void
Statevector::run(const CompiledCircuit &circuit,
                 const std::vector<double> &params)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("Statevector::run: width mismatch");
    invalidateCache();
    if (circuit.parameterized())
        circuit.bind(params, bindPool_);
    // The SIMD switch and the block threshold are read once per run, not
    // once per op. Below the threshold each op is one call of its unit
    // core over the whole state; at or above it the op's units go
    // through the fixed-block partition, as kern::apply* would send
    // them. Both shapes give the same bits (sim/kernels.hpp).
    const bool simd = simdEnabled();
    Complex *a = amps_.data();
    const std::size_t dim = amps_.size();
    if (dim < intraStateParallelThreshold()) {
        const auto whole = [](std::size_t units, const auto &core) {
            core(std::size_t{0}, units);
        };
        for (const CompiledOp &op : circuit.ops())
            applyOp(a, dim, op, circuit.matrixFor(op, bindPool_), simd,
                    whole);
        return;
    }
    const auto blocked = [dim](std::size_t units, const auto &core) {
        forEachUnitBlocked(units, dim, core);
    };
    for (const CompiledOp &op : circuit.ops())
        applyOp(a, dim, op, circuit.matrixFor(op, bindPool_), simd, blocked);
}

double
Statevector::probability(std::uint64_t basis_state) const
{
    if (basis_state >= amps_.size())
        throw std::out_of_range("Statevector::probability: state index");
    return std::norm(amps_[basis_state]);
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> p(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i)
        p[i] = std::norm(amps_[i]);
    return p;
}

Complex
Statevector::innerProduct(const Statevector &other) const
{
    if (other.numQubits_ != numQubits_)
        throw std::invalid_argument("Statevector::innerProduct: width");
    return kern::innerProduct(amps_, other.amps_);
}

double
Statevector::fidelity(const Statevector &other) const
{
    return std::norm(innerProduct(other));
}

double
Statevector::norm() const
{
    return std::sqrt(kern::norm2(amps_));
}

void
Statevector::normalize()
{
    const double n = norm();
    if (n <= 0.0)
        throw std::runtime_error("Statevector::normalize: zero state");
    invalidateCache();
    for (auto &a : amps_)
        a /= n;
}

const std::vector<double> &
Statevector::cumulativeProbabilities() const
{
    if (!cdfValid_) {
        cdf_.resize(amps_.size());
        double acc = 0.0;
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            acc += std::norm(amps_[i]);
            cdf_[i] = acc;
        }
        cdfValid_ = true;
    }
    return cdf_;
}

std::vector<std::uint64_t>
Statevector::sample(Rng &rng, std::size_t shots) const
{
    // Inverse-CDF sampling over the cumulative distribution, with the
    // search ShotSampler uses. The CDF itself is cached across calls
    // until the state mutates.
    const detail::CdfSearch search(cumulativeProbabilities(),
                                   "Statevector::sample");
    std::vector<std::uint64_t> out;
    out.reserve(shots);
    for (std::size_t s = 0; s < shots; ++s)
        out.push_back(
            static_cast<std::uint64_t>(search.find(rng.uniformBits())));
    return out;
}

double
Statevector::expectationZMask(std::uint64_t mask) const
{
    return kern::expectationZMask(amps_, mask);
}

} // namespace qismet
