/**
 * @file
 * Unit tests for the circuit compiler itself: op-count reduction,
 * kernel classification, diagonal-run merging, cancellation peepholes,
 * 2q absorption, and parameter-slot rebinding. End-to-end numeric
 * equivalence against the unfused path lives in
 * test_fusion_equivalence.cpp.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"

namespace qismet {
namespace {

std::size_t
countKind(const CompiledCircuit &cc, CompiledOpKind kind)
{
    std::size_t n = 0;
    for (const auto &op : cc.ops())
        if (op.kind == kind)
            ++n;
    return n;
}

TEST(CompiledCircuit, AdjacentOneQubitGatesFuseIntoOneDense)
{
    Circuit c(2);
    c.h(0).rz(0, 0.3).ry(0, -0.7).sx(0).t(0);
    const CompiledCircuit cc(c);

    EXPECT_EQ(cc.stats().inputGates, 5u);
    ASSERT_EQ(cc.ops().size(), 1u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Dense1);
    EXPECT_EQ(cc.ops()[0].q0, 0);

    // The fused 2x2 must equal the ordered product of the gate matrices.
    Statevector fused(2);
    Gate prep; // decorrelate from |00> so both columns are exercised
    prep.type = GateType::H;
    prep.qubits = {1, 0};
    fused.applyGate(prep);
    Statevector unfused = fused;
    fused.run(cc);
    for (const Gate &g : c.gates())
        unfused.applyGate(g);
    for (std::size_t i = 0; i < fused.dim(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    unfused.amplitudes()[i].real(), 1e-12);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    unfused.amplitudes()[i].imag(), 1e-12);
    }
}

TEST(CompiledCircuit, CommutingDiagonalRunMergesIntoOneTable)
{
    // rz/z/t/cz on three qubits all commute: one Diag op, mask 0b111.
    Circuit c(3);
    c.rz(0, 0.4).z(1).cz(0, 1).t(2).s(0).cz(1, 2);
    const CompiledCircuit cc(c);

    ASSERT_EQ(cc.ops().size(), 1u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Diag);
    EXPECT_EQ(cc.ops()[0].mask, 0b111u);
    EXPECT_EQ(cc.stats().diag, 1u);
}

TEST(CompiledCircuit, DiagonalRunBrokenByNonCommutingGate)
{
    // The h(1) touches qubit 1 after the run opened, so the later z(1)
    // must not hoist across it.
    Circuit c(2);
    c.rz(0, 0.2).h(1).z(1);
    const CompiledCircuit cc(c);

    // z(1) fuses into the dense h(1) node instead; rz(0) stays a Diag.
    ASSERT_EQ(cc.ops().size(), 2u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Diag);
    EXPECT_EQ(cc.ops()[0].mask, 0b01u);
    EXPECT_EQ(cc.ops()[1].kind, CompiledOpKind::Dense1);
}

TEST(CompiledCircuit, MaxDiagQubitsCapSplitsRuns)
{
    Circuit c(4);
    c.rz(0, 0.1).rz(1, 0.2).rz(2, 0.3).rz(3, 0.4);
    CompileOptions opts;
    opts.maxDiagQubits = 2;
    const CompiledCircuit cc(c, opts);

    EXPECT_EQ(cc.stats().diag, 2u);
    for (const auto &op : cc.ops())
        EXPECT_LE(std::popcount(op.mask), 2);
}

TEST(CompiledCircuit, PermutationGatesGetPermutationKernels)
{
    Circuit c(3);
    c.x(0).cx(0, 1).swap(1, 2).cz(0, 2);
    const CompiledCircuit cc(c);

    EXPECT_EQ(countKind(cc, CompiledOpKind::PermX), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::PermCX), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::PermSwap), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::Diag), 1u);
}

TEST(CompiledCircuit, SelfInversePairsCancel)
{
    Circuit c(2);
    c.x(0).x(0).cx(0, 1).cx(0, 1).swap(0, 1).swap(0, 1);
    const CompiledCircuit cc(c);

    EXPECT_EQ(cc.ops().size(), 0u);
    EXPECT_EQ(cc.stats().cancelled, 6u);
}

TEST(CompiledCircuit, ReversedControlDoesNotCancel)
{
    Circuit c(2);
    c.cx(0, 1).cx(1, 0);
    const CompiledCircuit cc(c);
    EXPECT_EQ(cc.ops().size(), 2u);
    EXPECT_EQ(cc.stats().cancelled, 0u);
}

TEST(CompiledCircuit, AbsorbIntoTwoQubitWhenRequested)
{
    Circuit c(2);
    c.h(0).ry(1, 0.4).cx(0, 1).rz(1, -0.2);
    CompileOptions opts;
    opts.absorb2q = CompileOptions::Absorb2q::Always;
    const CompiledCircuit cc(c, opts);

    // Both pending 1q nodes, the CX and the trailing rz collapse into
    // one dense 4x4.
    ASSERT_EQ(cc.ops().size(), 1u);
    EXPECT_EQ(cc.ops()[0].kind, CompiledOpKind::Dense2);

    // And the result matches the unfused application exactly.
    Statevector fused(2);
    fused.run(cc);
    Statevector unfused(2);
    for (const Gate &g : c.gates())
        unfused.applyGate(g);
    for (std::size_t i = 0; i < fused.dim(); ++i) {
        EXPECT_NEAR(fused.amplitudes()[i].real(),
                    unfused.amplitudes()[i].real(), 1e-12);
        EXPECT_NEAR(fused.amplitudes()[i].imag(),
                    unfused.amplitudes()[i].imag(), 1e-12);
    }
}

TEST(CompiledCircuit, NarrowRegistersKeepPermKernelsByDefault)
{
    // Auto policy: below the width threshold CX stays a permutation op.
    Circuit c(2);
    c.h(0).cx(0, 1);
    const CompiledCircuit cc(c);
    EXPECT_EQ(countKind(cc, CompiledOpKind::PermCX), 1u);
    EXPECT_EQ(countKind(cc, CompiledOpKind::Dense2), 0u);
}

TEST(CompiledCircuit, ParameterSlotsRebindAcrossRuns)
{
    Circuit c(2, 2);
    c.h(0).rzParam(0, 0, 2.0, 0.1).ryParam(1, 1).cx(0, 1);
    const CompiledCircuit cc(c);
    EXPECT_TRUE(cc.parameterized());
    EXPECT_GT(cc.bindPoolSize(), 0u);

    // One compiled instance, two parameter vectors; each run must match
    // a fresh unfused execution at those parameters.
    for (const std::vector<double> &theta :
         {std::vector<double>{0.3, -1.2}, std::vector<double>{-2.0, 0.7}}) {
        Statevector fused(2);
        fused.run(cc, theta);
        Statevector unfused(2);
        for (const Gate &g : c.gates())
            unfused.applyGate(g, theta);
        for (std::size_t i = 0; i < fused.dim(); ++i) {
            EXPECT_NEAR(fused.amplitudes()[i].real(),
                        unfused.amplitudes()[i].real(), 1e-12);
            EXPECT_NEAR(fused.amplitudes()[i].imag(),
                        unfused.amplitudes()[i].imag(), 1e-12);
        }
    }
}

TEST(CompiledCircuit, ConstantOpsLiveInConstPool)
{
    Circuit c(2, 1);
    c.h(0).rzParam(1, 0);
    const CompiledCircuit cc(c);
    ASSERT_EQ(cc.ops().size(), 2u);
    EXPECT_FALSE(cc.ops()[0].parameterized);
    EXPECT_TRUE(cc.ops()[1].parameterized);
    EXPECT_GE(cc.constPool().size(), 4u);
}

TEST(CompiledCircuit, BindValidatesParameterCount)
{
    Circuit c(1, 2);
    c.rzParam(0, 0).rxParam(0, 1);
    const CompiledCircuit cc(c);
    std::vector<Complex> pool;
    EXPECT_THROW(cc.bind({0.1}, pool), std::invalid_argument);
    EXPECT_NO_THROW(cc.bind({0.1, 0.2}, pool));
    EXPECT_EQ(pool.size(), cc.bindPoolSize());
}

TEST(CompiledCircuit, NegativeParameterIndexIsRejectedAtCompile)
{
    // Circuit::append bounds a parameter index from above only. bind()
    // no longer checks indexes per factor, so the compiler rejects one
    // below zero, naming it.
    Circuit c(1, 1);
    c.rzParam(0, -3);
    try {
        const CompiledCircuit cc(c);
        ADD_FAILURE() << "compiled a negative parameter index";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos)
            << e.what();
    }
}

/**
 * Fixed-angle rotations that fuse into dense 2x2s around a CX ladder and
 * a CZ: the fused and gate-by-gate executions round differently.
 */
Circuit
mixedCircuit(int n)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.h(q).rz(q, 0.3 + 0.1 * q).ry(q, -0.7 + 0.05 * q);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.rx(q, 0.9 - 0.1 * q).t(q);
    c.cz(0, n - 1);
    return c;
}

bool
sameBytes(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

std::vector<Complex>
elements(const DensityMatrix &rho)
{
    std::vector<Complex> out;
    for (std::size_t r = 0; r < rho.dim(); ++r)
        for (std::size_t c = 0; c < rho.dim(); ++c)
            out.push_back(rho.element(r, c));
    return out;
}

TEST(CompiledCircuit, RunCircuitSelectsPathBySize)
{
    // run(Circuit) compiles from kAutoCompileAmplitudes amplitudes
    // (statevector) or elements (density matrix, dim^2) up and runs
    // gate by gate below. The two paths agree only to ~1e-12, so byte
    // equality with one of them shows which one ran.
    static_assert(kAutoCompileAmplitudes == 64);

    for (const int n : {5, 6}) {
        const Circuit c = mixedCircuit(n);
        Statevector viaRun(n);
        viaRun.run(c);
        Statevector gateByGate(n);
        for (const Gate &g : c.gates())
            gateByGate.applyGate(g);
        Statevector compiled(n);
        compiled.run(CompiledCircuit(c));
        ASSERT_FALSE(sameBytes(gateByGate.amplitudes(),
                               compiled.amplitudes()))
            << "n=" << n << ": the two paths cannot be told apart";
        const Statevector &expected = n < 6 ? gateByGate : compiled;
        EXPECT_TRUE(sameBytes(viaRun.amplitudes(), expected.amplitudes()))
            << "statevector n=" << n;
    }

    for (const int n : {2, 3}) {
        const Circuit c = mixedCircuit(n);
        DensityMatrix viaRun(n);
        viaRun.run(c);
        DensityMatrix gateByGate(n);
        for (const Gate &g : c.gates())
            gateByGate.applyGate(g);
        DensityMatrix compiled(n);
        compiled.run(CompiledCircuit(c));
        ASSERT_FALSE(sameBytes(elements(gateByGate), elements(compiled)))
            << "n=" << n << ": the two paths cannot be told apart";
        const DensityMatrix &expected = n < 3 ? gateByGate : compiled;
        EXPECT_TRUE(sameBytes(elements(viaRun), elements(expected)))
            << "density matrix n=" << n;
    }
}

TEST(CompiledCircuit, OpCountShrinksOnAnsatzShapedCircuits)
{
    // RealAmplitudes-shaped layer structure: ry+rz pairs fuse per qubit.
    const int n = 4;
    Circuit c(n, 2 * n * 3);
    int p = 0;
    for (int layer = 0; layer < 3; ++layer) {
        for (int q = 0; q < n; ++q) {
            c.ryParam(q, p++);
            c.rzParam(q, p++);
        }
        for (int q = 0; q + 1 < n; ++q)
            c.cx(q, q + 1);
    }
    const CompiledCircuit cc(c);
    EXPECT_LT(cc.stats().ops, cc.stats().inputGates);
    // Each ry+rz pair becomes a single dense op.
    EXPECT_EQ(cc.stats().dense1 + cc.stats().diag,
              static_cast<std::size_t>(n * 3));
}

} // namespace
} // namespace qismet
