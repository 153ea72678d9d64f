/** @file Tests for the statevector simulator. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace qismet {
namespace {

Circuit
randomCircuit(int num_qubits, int num_gates, Rng &rng)
{
    Circuit c(num_qubits);
    for (int i = 0; i < num_gates; ++i) {
        const int q = static_cast<int>(rng.uniformInt(num_qubits));
        switch (rng.uniformInt(6)) {
          case 0: c.h(q); break;
          case 1: c.rx(q, rng.uniform(-3.0, 3.0)); break;
          case 2: c.ry(q, rng.uniform(-3.0, 3.0)); break;
          case 3: c.rz(q, rng.uniform(-3.0, 3.0)); break;
          case 4: c.s(q); break;
          default: {
            int q2 = static_cast<int>(rng.uniformInt(num_qubits));
            if (q2 == q)
                q2 = (q + 1) % num_qubits;
            c.cx(q, q2);
          }
        }
    }
    return c;
}

TEST(Statevector, InitialState)
{
    Statevector st(3);
    EXPECT_EQ(st.dim(), 8u);
    EXPECT_DOUBLE_EQ(st.probability(0), 1.0);
    EXPECT_DOUBLE_EQ(st.norm(), 1.0);
}

TEST(Statevector, ConstructorValidation)
{
    EXPECT_THROW(Statevector(0), std::invalid_argument);
    EXPECT_THROW(Statevector(std::vector<Complex>{{1, 0}, {0, 0}, {0, 0}}),
                 std::invalid_argument);
}

TEST(Statevector, BellState)
{
    Statevector st(2);
    Circuit c(2);
    c.h(0).cx(0, 1);
    st.run(c);
    EXPECT_NEAR(st.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(st.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(st.probability(0b01), 0.0, 1e-12);
    EXPECT_NEAR(st.probability(0b10), 0.0, 1e-12);
}

TEST(Statevector, GhzState)
{
    const int n = 5;
    Statevector st(n);
    Circuit c(n);
    c.h(0);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    st.run(c);
    EXPECT_NEAR(st.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(st.probability((1u << n) - 1), 0.5, 1e-12);
}

class NormPreservationTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NormPreservationTest, RandomCircuitsPreserveNorm)
{
    Rng rng(GetParam());
    Statevector st(4);
    st.run(randomCircuit(4, 60, rng));
    EXPECT_NEAR(st.norm(), 1.0, 1e-10);
    double total = 0.0;
    for (double p : st.probabilities())
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormPreservationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Statevector, Apply2qMatchesGateFastPath)
{
    // CX via the dense 4x4 path must equal the fast-path swap.
    Rng rng(42);
    Statevector a(3), b(3);
    const Circuit prep = randomCircuit(3, 20, rng);
    a.run(prep);
    b = a;

    Gate cx;
    cx.type = GateType::CX;
    cx.qubits = {2, 0};
    a.applyGate(cx);
    b.apply2q(2, 0, cx.matrix());
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(Statevector, CzIsSymmetric)
{
    Rng rng(43);
    Statevector a(2), b(2);
    const Circuit prep = randomCircuit(2, 10, rng);
    a.run(prep);
    b = a;
    Circuit c1(2), c2(2);
    c1.cz(0, 1);
    c2.cz(1, 0);
    a.run(c1);
    b.run(c2);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(Statevector, SwapExchangesQubits)
{
    Statevector st(2);
    Circuit c(2);
    c.x(0).swap(0, 1);
    st.run(c);
    EXPECT_NEAR(st.probability(0b10), 1.0, 1e-12);
}

TEST(Statevector, InnerProductAndFidelity)
{
    Statevector a(1), b(1);
    Circuit h(1);
    h.h(0);
    b.run(h);
    EXPECT_NEAR(std::abs(a.innerProduct(b)), 1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(a.fidelity(b), 0.5, 1e-12);
    EXPECT_NEAR(b.fidelity(b), 1.0, 1e-12);
}

TEST(Statevector, ExpectationZMask)
{
    Statevector st(2);
    EXPECT_DOUBLE_EQ(st.expectationZMask(0b01), 1.0); // |00>: Z0 = +1
    Circuit c(2);
    c.x(0);
    st.run(c);
    EXPECT_DOUBLE_EQ(st.expectationZMask(0b01), -1.0);
    EXPECT_DOUBLE_EQ(st.expectationZMask(0b11), -1.0); // Z0 Z1 on |01>
    EXPECT_DOUBLE_EQ(st.expectationZMask(0b10), 1.0);
}

TEST(Statevector, ExpectationZMaskSuperposition)
{
    Statevector st(1);
    Circuit c(1);
    c.h(0);
    st.run(c);
    EXPECT_NEAR(st.expectationZMask(1), 0.0, 1e-12);
}

TEST(Statevector, SamplingMatchesDistribution)
{
    Statevector st(2);
    Circuit c(2);
    c.h(0).cx(0, 1);
    st.run(c);
    Rng rng(77);
    const auto samples = st.sample(rng, 20000);
    std::size_t zeros = 0, threes = 0;
    for (auto s : samples) {
        if (s == 0)
            ++zeros;
        else if (s == 3)
            ++threes;
        else
            FAIL() << "impossible outcome " << s;
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 20000.0, 0.5, 0.02);
    EXPECT_NEAR(static_cast<double>(threes) / 20000.0, 0.5, 0.02);
}

TEST(Statevector, SampleRefusesTotalsThatAreNotFiniteAndPositive)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const std::vector<Complex> &amps :
         {std::vector<Complex>{1.0, inf, 0.0, 0.0},
          std::vector<Complex>{1.0, nan, 0.0, 0.0},
          std::vector<Complex>(4, 0.0)}) {
        const Statevector st(amps);
        Rng rng(1);
        try {
            st.sample(rng, 10);
            ADD_FAILURE() << "no exception";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("Statevector::sample"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("total"), std::string::npos)
                << e.what();
        }
    }
}

TEST(Statevector, RunRejectsWidthMismatch)
{
    Statevector st(2);
    Circuit c(3);
    EXPECT_THROW(st.run(c), std::invalid_argument);
}

TEST(Statevector, ResetRestoresGround)
{
    Statevector st(2);
    Circuit c(2);
    c.h(0).h(1);
    st.run(c);
    st.reset();
    EXPECT_DOUBLE_EQ(st.probability(0), 1.0);
}

TEST(Statevector, NormalizeFixesScaledState)
{
    std::vector<Complex> amps = {Complex(2, 0), Complex(0, 0)};
    Statevector st(std::move(amps));
    st.normalize();
    EXPECT_NEAR(st.norm(), 1.0, 1e-14);
}

} // namespace
} // namespace qismet
