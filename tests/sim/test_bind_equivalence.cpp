/**
 * @file
 * Differential battery for CompiledCircuit::bind: the pool it writes
 * (and the constant pool its recipes evaluate at compile time) must
 * match the slot evaluation it replaced, kept below as the oracle, bit
 * for bit. The oracle multiplies each op's factors onto the identity
 * from Gate::matrixInto, Gate::diagonalInto and the std::complex
 * products, exactly as the compiler's bind did before it compiled flat
 * factor recipes and took RZ phases from sincos.
 *
 * Random circuits use every gate type plus parameterized RX/RY/RZ with
 * random scales and offsets, compiled with absorb2q Always and Never,
 * so Dense1, Dense2 and Diag ops all bind. Angles are ordinary, special
 * (±0, ±π, the DBL_MIN boundary of the RZ fast path, subnormals, 1e300,
 * DBL_MAX) and non-finite (NaN, ±inf); every lane must match the
 * oracle bit for bit, except that where the oracle has a NaN only
 * NaN-ness is compared (see expectSamePool). This battery lives in the
 * `simkern` binary, so the ASan/UBSan sweeps check the recipes'
 * indexing as well.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/compiled_circuit.hpp"

namespace qismet {
namespace {

// ---------------------------------------------------------------------
// The oracle: the slot evaluation bind() used before the recipes.
// ---------------------------------------------------------------------

int
localBit(std::uint64_t mask, int q)
{
    return std::popcount(mask & ((std::uint64_t{1} << q) - 1));
}

void
mulLeft2x2(const Complex *f, Complex *acc)
{
    const Complex a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
    acc[0] = f[0] * a0 + f[1] * a2;
    acc[1] = f[0] * a1 + f[1] * a3;
    acc[2] = f[2] * a0 + f[3] * a2;
    acc[3] = f[2] * a1 + f[3] * a3;
}

void
mulLeft4x4(const Complex *f, Complex *acc)
{
    Complex out[16];
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            Complex sum(0.0, 0.0);
            for (int k = 0; k < 4; ++k)
                sum += f[r * 4 + k] * acc[k * 4 + c];
            out[r * 4 + c] = sum;
        }
    }
    for (int k = 0; k < 16; ++k)
        acc[k] = out[k];
}

void
expand1qTo4x4(const Complex *f, int sub, Complex *out)
{
    for (int k = 0; k < 16; ++k)
        out[k] = Complex(0.0, 0.0);
    if (sub == 0) {
        for (int a = 0; a < 2; ++a)
            for (int b = 0; b < 2; ++b)
                for (int x = 0; x < 2; ++x)
                    out[((a << 1) | x) * 4 + ((b << 1) | x)] = f[a * 2 + b];
    } else {
        for (int x = 0; x < 2; ++x)
            for (int a = 0; a < 2; ++a)
                for (int b = 0; b < 2; ++b)
                    out[((x << 1) | a) * 4 + ((x << 1) | b)] = f[a * 2 + b];
    }
}

std::size_t
matrixSize(CompiledOpKind kind, std::uint64_t mask)
{
    switch (kind) {
      case CompiledOpKind::Dense1:
      case CompiledOpKind::PermX:
        return 4;
      case CompiledOpKind::Diag:
        return std::size_t{1} << std::popcount(mask);
      case CompiledOpKind::Dense2:
      case CompiledOpKind::PermCX:
      case CompiledOpKind::PermSwap:
        return 16;
    }
    return 0;
}

void
oracleEvalSlot(const CompiledOp &slot,
               std::span<const CompiledFactor> factors,
               const std::vector<double> &params, Complex *out)
{
    switch (slot.kind) {
      case CompiledOpKind::Dense1:
      case CompiledOpKind::PermX: {
        out[0] = out[3] = Complex(1.0, 0.0);
        out[1] = out[2] = Complex(0.0, 0.0);
        Complex f[4];
        for (const CompiledFactor &factor : factors) {
            factor.gate.matrixInto(f, params);
            mulLeft2x2(f, out);
        }
        return;
      }
      case CompiledOpKind::Dense2:
      case CompiledOpKind::PermCX:
      case CompiledOpKind::PermSwap: {
        for (int k = 0; k < 16; ++k)
            out[k] = Complex(0.0, 0.0);
        out[0] = out[5] = out[10] = out[15] = Complex(1.0, 0.0);
        Complex f[16];
        Complex expanded[16];
        for (const CompiledFactor &factor : factors) {
            const Gate &g = factor.gate;
            if (factor.sub >= 0) {
                Complex f1[4];
                g.matrixInto(f1, params);
                expand1qTo4x4(f1, factor.sub, expanded);
                mulLeft4x4(expanded, out);
                continue;
            }
            g.matrixInto(f, params);
            if (g.qubits[0] == slot.q1 && g.qubits[1] == slot.q0) {
                auto p = [](int x) { return ((x & 1) << 1) | (x >> 1); };
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c)
                        expanded[p(r) * 4 + p(c)] = f[r * 4 + c];
                mulLeft4x4(expanded, out);
            } else {
                mulLeft4x4(f, out);
            }
        }
        return;
      }
      case CompiledOpKind::Diag: {
        const std::size_t size = matrixSize(slot.kind, slot.mask);
        for (std::size_t k = 0; k < size; ++k)
            out[k] = Complex(1.0, 0.0);
        for (const CompiledFactor &factor : factors) {
            const Gate &g = factor.gate;
            if (gateArity(g.type) == 1) {
                Complex d[2];
                g.diagonalInto(d, params);
                const int bi = localBit(slot.mask, g.qubits[0]);
                for (std::size_t li = 0; li < size; ++li)
                    out[li] *= d[(li >> bi) & 1];
            } else {
                const std::size_t b0 = static_cast<std::size_t>(
                    localBit(slot.mask, g.qubits[0]));
                const std::size_t b1 = static_cast<std::size_t>(
                    localBit(slot.mask, g.qubits[1]));
                const std::size_t both =
                    (std::size_t{1} << b0) | (std::size_t{1} << b1);
                for (std::size_t li = 0; li < size; ++li)
                    if ((li & both) == both)
                        out[li] = -out[li];
            }
        }
        return;
      }
    }
}

/** The oracle's bind pool, or its constant pool with `constant` set. */
std::vector<Complex>
oraclePool(const CompiledCircuit &cc, const std::vector<double> &params,
           bool constant)
{
    std::vector<Complex> pool(constant ? cc.constPool().size()
                                       : cc.bindPoolSize());
    for (const CompiledOp &op : cc.ops()) {
        if (op.parameterized == constant)
            continue;
        const std::span<const CompiledFactor> factors(
            cc.factors().data() + op.firstFactor, op.numFactors);
        oracleEvalSlot(op, factors, params, pool.data() + op.offset);
    }
    return pool;
}

// ---------------------------------------------------------------------
// Random circuits and angles.
// ---------------------------------------------------------------------

double
randomAngle(Rng &rng)
{
    static const double kSpecial[] = {
        0.0,
        -0.0,
        M_PI,
        -M_PI,
        M_PI / 2.0,
        2.0 * DBL_MIN,
        -2.0 * DBL_MIN,
        std::nextafter(2.0 * DBL_MIN, 1.0),
        DBL_MIN,
        1e-310,
        -5e-324,
        1e300,
        -1e300,
        DBL_MAX,
        -DBL_MAX,
    };
    static const double kNonFinite[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    const std::uint64_t pick = rng.uniformInt(20);
    if (pick < 10)
        return rng.uniform(-4.0, 4.0);
    if (pick < 14)
        return rng.uniform(-1e6, 1e6);
    if (pick < 19)
        return kSpecial[rng.uniformInt(std::size(kSpecial))];
    return kNonFinite[rng.uniformInt(std::size(kNonFinite))];
}

Circuit
randomCircuit(int n, int params, int gates, Rng &rng)
{
    Circuit c(n, params);
    const auto qubit = [&] {
        return static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(n)));
    };
    const auto other = [&](int q) {
        int p = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(n - 1)));
        return p >= q ? p + 1 : p;
    };
    for (int g = 0; g < gates; ++g) {
        const int q = qubit();
        const int param = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(params)));
        // A third of the parameterized rotations keep scale 1, offset 0,
        // so the angle reaches bind's RZ boundary cases unchanged.
        const bool plain = rng.uniformInt(3) == 0;
        const double scale = plain ? 1.0 : rng.uniform(-2.0, 2.0);
        const double offset = plain ? 0.0 : rng.uniform(-1.0, 1.0);
        switch (rng.uniformInt(19)) {
          case 0: c.append(Gate{GateType::I, {q, 0}}); break;
          case 1: c.h(q); break;
          case 2: c.x(q); break;
          case 3: c.y(q); break;
          case 4: c.z(q); break;
          case 5: c.s(q); break;
          case 6: c.sdg(q); break;
          case 7: c.t(q); break;
          case 8: c.tdg(q); break;
          case 9: c.sx(q); break;
          case 10: c.rx(q, rng.uniform(-4.0, 4.0)); break;
          case 11: c.ry(q, rng.uniform(-4.0, 4.0)); break;
          case 12: c.rz(q, rng.uniform(-4.0, 4.0)); break;
          case 13: c.rxParam(q, param, scale, offset); break;
          case 14: c.ryParam(q, param, scale, offset); break;
          case 15: c.rzParam(q, param, scale, offset); break;
          case 16: c.cx(q, other(q)); break;
          case 17: c.cz(q, other(q)); break;
          default: c.swap(q, other(q)); break;
        }
    }
    return c;
}

/**
 * Byte equality of two pools, except that a NaN lane only has to be a
 * NaN: IEEE 754 leaves the sign and payload of a NaN result to the
 * order in which the compiler feeds NaN operands to each instruction,
 * and the oracle and the library are compiled separately (under the
 * sanitizer builds' -O1 they already disagree with the parent's own
 * code there). Every other lane, ±0 and ±inf included, must match bit
 * for bit.
 */
void
expectSamePool(const std::vector<Complex> &got,
               const std::vector<Complex> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const double g[2] = {got[i].real(), got[i].imag()};
        const double w[2] = {want[i].real(), want[i].imag()};
        for (int lane = 0; lane < 2; ++lane) {
            const bool same =
                std::isnan(w[lane])
                    ? std::isnan(g[lane])
                    : std::bit_cast<std::uint64_t>(g[lane]) ==
                          std::bit_cast<std::uint64_t>(w[lane]);
            if (!same) {
                ADD_FAILURE() << what << ": entry " << i << " lane " << lane
                              << " is " << g[lane] << ", the oracle's "
                              << w[lane];
                return;
            }
        }
    }
}

TEST(BindEquivalence, RecipesMatchSlotEvaluationOracle)
{
    Rng rng(0xB1DDull);
    std::size_t kinds[6] = {};
    for (int trial = 0; trial < 240; ++trial) {
        const int n = 2 + trial % 5;
        const int params = 1 + static_cast<int>(rng.uniformInt(6));
        const Circuit c = randomCircuit(n, params, 4 + 4 * n, rng);
        for (const auto absorb : {CompileOptions::Absorb2q::Always,
                                  CompileOptions::Absorb2q::Never}) {
            CompileOptions options;
            options.absorb2q = absorb;
            const CompiledCircuit cc(c, options);
            for (const CompiledOp &op : cc.ops())
                if (op.parameterized)
                    ++kinds[static_cast<int>(op.kind)];
            const std::string where =
                "trial " + std::to_string(trial) +
                (absorb == CompileOptions::Absorb2q::Always ? " always"
                                                            : " never");
            expectSamePool(cc.constPool(), oraclePool(cc, {}, true),
                            where + " const pool");
            std::vector<Complex> pool;
            std::vector<double> theta(static_cast<std::size_t>(params));
            for (int point = 0; point < 12; ++point) {
                for (double &t : theta)
                    t = randomAngle(rng);
                cc.bind(theta, pool);
                expectSamePool(pool, oraclePool(cc, theta, false),
                                where + " point " + std::to_string(point));
            }
        }
    }
    // Every parameterized kind the compiler emits was bound.
    EXPECT_GT(kinds[static_cast<int>(CompiledOpKind::Dense1)], 0u);
    EXPECT_GT(kinds[static_cast<int>(CompiledOpKind::Dense2)], 0u);
    EXPECT_GT(kinds[static_cast<int>(CompiledOpKind::Diag)], 0u);
}

TEST(BindEquivalence, RzPhasesMatchTheGateMatrixAtEveryAngleClass)
{
    // One parameterized RZ alone compiles to a one-entry-pair Diag op;
    // after an H it multiplies into a Dense1. Sweep both against
    // Gate::matrixInto directly, across the fast path's boundary.
    Circuit diag(1, 1);
    diag.rzParam(0, 0);
    Circuit dense(1, 1);
    dense.h(0).rzParam(0, 0);
    const CompiledCircuit ccDiag(diag);
    const CompiledCircuit ccDense(dense);
    ASSERT_EQ(ccDiag.ops().front().kind, CompiledOpKind::Diag);
    ASSERT_EQ(ccDense.ops().front().kind, CompiledOpKind::Dense1);

    std::vector<double> angles = {
        0.0, -0.0, 2.0 * DBL_MIN, -2.0 * DBL_MIN, DBL_MIN, 5e-324,
        std::nextafter(2.0 * DBL_MIN, 0.0), std::nextafter(2.0 * DBL_MIN, 1.0),
        1e300, -1e300, DBL_MAX, -DBL_MAX,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()};
    Rng rng(0x2A11ull);
    for (int i = 0; i < 2000; ++i)
        angles.push_back(randomAngle(rng));

    std::vector<Complex> pool;
    for (const double angle : angles) {
        SCOPED_TRACE(angle);
        Complex m[4];
        Gate{GateType::RZ, {0, 0}, 0.0, 0, 1.0}.matrixInto(m, {angle});
        ccDiag.bind({angle}, pool);
        // The Diag table starts from ones and multiplies the pair in.
        std::vector<Complex> want = {Complex(1.0, 0.0), Complex(1.0, 0.0)};
        want[0] *= m[0];
        want[1] *= m[3];
        expectSamePool(pool, want, "diag");
        ccDense.bind({angle}, pool);
        expectSamePool(pool, oraclePool(ccDense, {angle}, false), "dense");
    }
}

/** Every special and non-finite angle the random battery draws. */
std::vector<double>
angleClasses()
{
    std::vector<double> angles = {
        0.0,
        -0.0,
        M_PI,
        -M_PI,
        M_PI / 2.0,
        -M_PI / 2.0,
        M_PI / 4.0,
        2.0 * DBL_MIN,
        -2.0 * DBL_MIN,
        std::nextafter(2.0 * DBL_MIN, 0.0),
        std::nextafter(2.0 * DBL_MIN, 1.0),
        DBL_MIN,
        -DBL_MIN,
        1e-310,
        -1e-310,
        5e-324,
        -5e-324,
        1e300,
        -1e300,
        DBL_MAX,
        -DBL_MAX,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    Rng rng(0xF1257ull);
    for (int i = 0; i < 1000; ++i)
        angles.push_back(randomAngle(rng));
    return angles;
}

/** One parameterized op, its kind and its first factor's gate. */
struct FirstFactorCase
{
    const char *name;
    Circuit circuit;
    CompileOptions::Absorb2q absorb;
    CompiledOpKind kind;
    GateType first;
};

TEST(BindEquivalence, EveryFirstFactorKindMatchesTheOracle)
{
    // Each circuit compiles to one parameterized op whose first factor
    // is the named kind, so bind writes that factor in closed form (a
    // rotation) or copies it as compiled (a constant) before anything
    // multiplies in. Two parameters: the second drives a later factor.
    using A = CompileOptions::Absorb2q;
    const auto circuit = [] { return Circuit(2, 2); };
    std::vector<FirstFactorCase> cases;
    cases.push_back({"RX", circuit().rxParam(0, 0), A::Never,
                     CompiledOpKind::Dense1, GateType::RX});
    cases.push_back({"RY", circuit().ryParam(1, 0), A::Never,
                     CompiledOpKind::Dense1, GateType::RY});
    cases.push_back({"RX·RZ", circuit().rxParam(0, 0).rzParam(0, 1),
                     A::Never, CompiledOpKind::Dense1, GateType::RX});
    cases.push_back({"SU2 RY·RZ", circuit().ryParam(0, 0).rzParam(0, 1),
                     A::Never, CompiledOpKind::Dense1, GateType::RY});
    cases.push_back({"H·RY", circuit().h(0).ryParam(0, 0), A::Never,
                     CompiledOpKind::Dense1, GateType::H});
    cases.push_back({"X·RZ", circuit().x(1).rzParam(1, 0), A::Never,
                     CompiledOpKind::Dense1, GateType::X});
    cases.push_back({"RZ", circuit().rzParam(0, 0), A::Never,
                     CompiledOpKind::Diag, GateType::RZ});
    cases.push_back({"RZ·RZ", circuit().rzParam(0, 0).rzParam(1, 1),
                     A::Never, CompiledOpKind::Diag, GateType::RZ});
    cases.push_back({"S·RZ", circuit().s(1).rzParam(1, 0), A::Never,
                     CompiledOpKind::Diag, GateType::S});
    cases.push_back({"CZ·RZ", circuit().cz(0, 1).rzParam(0, 0), A::Never,
                     CompiledOpKind::Diag, GateType::CZ});
    cases.push_back({"RY(q0)·CX", circuit().ryParam(0, 0).cx(0, 1),
                     A::Always, CompiledOpKind::Dense2, GateType::RY});
    cases.push_back({"RX(q1)·CX", circuit().rxParam(1, 0).cx(0, 1),
                     A::Always, CompiledOpKind::Dense2, GateType::RX});
    cases.push_back({"RY·RZ(q0)·CX",
                     circuit().ryParam(0, 0).rzParam(0, 1).cx(1, 0),
                     A::Always, CompiledOpKind::Dense2, GateType::RY});
    cases.push_back({"CX·RY", circuit().cx(0, 1).ryParam(1, 0), A::Always,
                     CompiledOpKind::Dense2, GateType::CX});

    const std::vector<double> angles = angleClasses();
    Rng rng(0xF1258ull);
    std::vector<Complex> pool;
    for (const FirstFactorCase &c : cases) {
        SCOPED_TRACE(c.name);
        CompileOptions options;
        options.absorb2q = c.absorb;
        const CompiledCircuit cc(c.circuit, options);
        ASSERT_EQ(cc.ops().size(), 1u);
        const CompiledOp &op = cc.ops().front();
        ASSERT_TRUE(op.parameterized);
        ASSERT_EQ(op.kind, c.kind);
        ASSERT_EQ(cc.factors()[op.firstFactor].gate.type, c.first);
        expectSamePool(cc.constPool(), oraclePool(cc, {}, true), "const");
        for (const double angle : angles) {
            // The first parameter at every class, the other at random
            // and at the same class.
            for (const double other : {angle, randomAngle(rng)}) {
                const std::vector<double> theta = {angle, other};
                cc.bind(theta, pool);
                expectSamePool(pool, oraclePool(cc, theta, false),
                               std::to_string(angle) + ", " +
                                   std::to_string(other));
            }
        }
    }
}

#if defined(__GLIBC__)

/** sin a alone, out of line, so no sincos can pair it with a cos. */
[[gnu::noinline]] double
sinAlone(double a)
{
    return std::sin(a);
}

/** cos a alone, out of line, so no sincos can pair it with a sin. */
[[gnu::noinline]] double
cosAlone(double a)
{
    return std::cos(a);
}

TEST(RzPhases, GlibcSincosIsOddAndEven)
{
    // Bind takes both RZ phases from one sincos(a) call, as (cos a,
    // -sin a) and (cos a, sin a), and writes RX and RY from sincos
    // where Gate::matrixInto calls std::sin and std::cos. That is exact
    // only while this glibc's sincos is odd in its sine and even in its
    // cosine bit for bit, equals sin and cos, and returns (a, 1) at
    // |a| <= DBL_MIN, where cexp(i·a) takes (1, a) without calling it.
    std::vector<double> grid = {0.0,     5e-324,  1e-310, DBL_MIN,
                                std::nextafter(DBL_MIN, 0.0),
                                std::nextafter(DBL_MIN, 1.0),
                                2.0 * DBL_MIN, 1e-300, 1e-20,  1e-8,
                                0.5,     1.0,     2.0,    1e6,
                                1e22,    1e300,   DBL_MAX};
    for (int k = 1; k <= 4096; ++k) {
        const double x = k * (M_PI / 4.0);
        grid.push_back(x);
        grid.push_back(std::nextafter(x, 0.0));
        grid.push_back(std::nextafter(x, DBL_MAX));
    }
    Rng rng(0x51Cull);
    for (int i = 0; i < 20000; ++i) {
        grid.push_back(rng.uniform(0.0, 8.0));
        // Every finite binade, subnormals included.
        grid.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                                  static_cast<int>(rng.uniformInt(2098)) -
                                      1074));
    }
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (const double x : grid) {
        for (const double a : {x, -x}) {
            SCOPED_TRACE(a);
            double s = 0.0;
            double c = 0.0;
            ::sincos(a, &s, &c);
            double sn = 0.0;
            double cn = 0.0;
            ::sincos(-a, &sn, &cn);
            ASSERT_EQ(bits(sn), bits(-s));
            ASSERT_EQ(bits(cn), bits(c));
            ASSERT_EQ(bits(s), bits(sinAlone(a)));
            ASSERT_EQ(bits(c), bits(cosAlone(a)));
            if (std::fabs(a) <= DBL_MIN) {
                ASSERT_EQ(bits(s), bits(a));
                ASSERT_EQ(bits(c), bits(1.0));
            }
        }
    }
}

#endif

} // namespace
} // namespace qismet
