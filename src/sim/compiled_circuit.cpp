#include "sim/compiled_circuit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qismet {

namespace {

/** Local bit position of qubit `q` inside the gathered `mask` index. */
int
localBit(std::uint64_t mask, int q)
{
    return std::popcount(mask & ((std::uint64_t{1} << q) - 1));
}

/** acc = f * acc, 2x2 row-major. */
void
mulLeft2x2(const Complex *f, Complex *acc)
{
    const Complex a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
    acc[0] = f[0] * a0 + f[1] * a2;
    acc[1] = f[0] * a1 + f[1] * a3;
    acc[2] = f[2] * a0 + f[3] * a2;
    acc[3] = f[2] * a1 + f[3] * a3;
}

/**
 * acc = f * acc, 4x4 row-major. Kept out of line: inlining it reorders
 * the operands the compiler feeds each multiply and add, which moves
 * the sign and payload of the NaN entries a non-finite angle produces
 * (IEEE 754 leaves both to that order).
 */
[[gnu::noinline]] void
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

/**
 * Expand a 1q matrix to the 4x4 acting on one half of a 2q op.
 * sub == 0: f acts on the op's most-significant qubit (F = f (x) I);
 * sub == 1: on the least-significant one (F = I (x) f).
 */
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

/** Matrix entries an op of this kind occupies in its pool. */
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

/**
 * sin a and cos a, bit for bit as std::sin and std::cos return them.
 * glibc computes both in one sincos call, which GCC picks for a sin and
 * a cos of one argument only where it sees both in one branch.
 */
void
sinCos(double a, double &s, double &c)
{
#if defined(__GLIBC__)
    ::sincos(a, &s, &c);
#else
    s = std::sin(a);
    c = std::cos(a);
#endif
}

/**
 * RZ's diagonal for half-angle `a`: minus = e^{-ia}, plus = e^{ia},
 * bit for bit what Gate::matrixInto's std::exp(∓i·a) returns. The
 * argument's real part is ±0 there, and for a finite imaginary part y
 * glibc's cexp returns (exp(±0)·cos y, exp(±0)·sin y) with sin y and
 * cos y from its own sincos(y), or (exp(±0), exp(±0)·y) where
 * |y| <= DBL_MIN, which is what sincos returns there too; exp(±0) is
 * exactly 1. glibc's sincos is odd in sin and even in cos, bit for bit
 * (pinned by RzPhases.GlibcSincosIsOddAndEven), so one call at `a`
 * gives both phases. Non-finite angles keep std::exp.
 */
void
rzPhases(double a, Complex &minus, Complex &plus)
{
#if defined(__GLIBC__)
    if (std::isfinite(a)) {
        double s = 0.0;
        double c = 0.0;
        sinCos(a, s, c);
        minus = Complex(c, -s);
        plus = Complex(c, s);
        return;
    }
#endif
    const Complex i(0.0, 1.0);
    minus = std::exp(-i * a);
    plus = std::exp(i * a);
}

/**
 * What multiplying a rotation with a non-finite angle onto the identity
 * leaves in every entry: each row of the factor holds a NaN entry, and
 * a complex product with a NaN operand is NaN in both lanes.
 */
void
fillNaN(Complex *out, std::size_t n)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::fill(out, out + n, Complex(nan, nan));
}

} // namespace

double
CompiledCircuit::halfAngle(const FactorRecipe &r, const double *params)
{
    // The angle Gate::resolvedAngle would resolve, halved as
    // Gate::matrixInto halves it.
    return (r.scale * params[r.param] + r.offset) / 2.0;
}

void
CompiledCircuit::rotationInto(const FactorRecipe &r, const double *params,
                              Complex *m)
{
    // Gate::matrixInto's formulas.
    const double a = halfAngle(r, params);
    const Complex i(0.0, 1.0);
    double s = 0.0;
    double c = 0.0;
    switch (r.kind) {
      case FactorRecipe::Kind::RX:
        sinCos(a, s, c);
        m[0] = m[3] = c;
        m[1] = m[2] = -i * s;
        return;
      case FactorRecipe::Kind::RY:
        sinCos(a, s, c);
        m[0] = m[3] = c;
        m[1] = -s;
        m[2] = s;
        return;
      default:
        m[1] = m[2] = Complex(0.0, 0.0);
        rzPhases(a, m[0], m[3]);
        return;
    }
}

void
CompiledCircuit::firstRotationInto(const FactorRecipe &r,
                                   const double *params, Complex *m)
{
    // The product with the identity, entry by entry, is a sum of two
    // products with (1, 0) and (0, 0). For a finite half-angle a, with
    // s = sin a and c = cos a, those reduce to the closed forms below:
    // c is never zero, so c - 0*y and c + 0*y are c; a sum of signed
    // zeros is kept where its sign can differ from the plain entry's
    // (c*0 - s is +0 at s = +0, where -s is -0); 0 - s and y + 0 turn
    // a -0 into the +0 the product gives. DESIGN.md §11 derives them.
    const double a = halfAngle(r, params);
    if (!std::isfinite(a)) {
        fillNaN(m, 4);
        return;
    }
    double s = 0.0;
    double c = 0.0;
    switch (r.kind) {
      case FactorRecipe::Kind::RX:
        sinCos(a, s, c);
        m[0] = m[3] = Complex(c, 0.0);
        m[1] = m[2] = Complex(0.0, 0.0 - s);
        return;
      case FactorRecipe::Kind::RY:
        sinCos(a, s, c);
        m[0] = m[3] = Complex(c, 0.0);
        m[1] = Complex(c * 0.0 - s, 0.0);
        m[2] = Complex(s + c * 0.0, 0.0);
        return;
      default: {
        Complex minus;
        Complex plus;
        rzPhases(a, minus, plus);
        m[0] = Complex(minus.real(), minus.imag() + 0.0);
        m[1] = m[2] = Complex(0.0, 0.0);
        m[3] = Complex(plus.real(), plus.imag() + 0.0);
        return;
      }
    }
}

CompiledCircuit::CompiledCircuit(const Circuit &circuit,
                                 CompileOptions options)
    : numQubits_(circuit.numQubits()), numParams_(circuit.numParams())
{
    const bool absorb2q =
        options.absorb2q == CompileOptions::Absorb2q::Always ||
        (options.absorb2q == CompileOptions::Absorb2q::Auto &&
         numQubits_ >= options.absorb2qAutoWidth);

    /** Fusion work-in-progress node; becomes one CompiledOp unless erased. */
    struct BNode
    {
        CompiledOpKind kind = CompiledOpKind::Dense1;
        int q0 = 0;
        int q1 = 0;
        std::uint64_t mask = 0;
        std::vector<CompiledFactor> factors;
        bool erased = false;
    };
    std::vector<BNode> nodes;

    // Index of the last live node touching each qubit. kNone = untouched;
    // kBarrier = the last toucher was cancelled away, so its *predecessor*
    // (which we no longer know) bounds fusion — treat as unfusable.
    constexpr int kNone = -1;
    constexpr int kBarrier = -2;
    std::vector<int> lastTouch(static_cast<std::size_t>(numQubits_), kNone);
    int lastDiag = kNone;

    auto live = [&nodes](int idx) {
        return idx >= 0 && !nodes[static_cast<std::size_t>(idx)].erased;
    };
    auto node = [&nodes](int idx) -> BNode & {
        return nodes[static_cast<std::size_t>(idx)];
    };
    // A diagonal gate on `q` may hoist into the diag run at lastDiag iff
    // nothing after that node touches q.
    auto hoistOk = [&](int q) {
        const int t = lastTouch[static_cast<std::size_t>(q)];
        return t == kNone || (t >= 0 && t <= lastDiag);
    };
    auto touch = [&lastTouch](int q, int idx) {
        lastTouch[static_cast<std::size_t>(q)] = idx;
    };
    auto newNode = [&nodes](CompiledOpKind kind, int q0, int q1,
                            std::uint64_t mask, const Gate &g,
                            int sub) -> int {
        BNode n;
        n.kind = kind;
        n.q0 = q0;
        n.q1 = q1;
        n.mask = mask;
        n.factors.push_back(CompiledFactor{g, sub});
        nodes.push_back(std::move(n));
        return static_cast<int>(nodes.size()) - 1;
    };
    // Sub-position of qubit q inside 2q node n (0 = q0/MSB, 1 = q1/LSB).
    auto subOf = [](const BNode &n, int q) { return q == n.q0 ? 0 : 1; };

    for (const Gate &g : circuit.gates()) {
        if (g.type == GateType::I)
            continue;
        ++stats_.inputGates;

        if (gateArity(g.type) == 1) {
            const int q = g.qubits[0];
            const int t = lastTouch[static_cast<std::size_t>(q)];
            const bool diag = isDiagonal(g.type);

            // Multiply into the last dense node touching q, whatever the
            // gate (dense and diagonal 1q gates alike).
            if (live(t) &&
                (node(t).kind == CompiledOpKind::Dense1 ||
                 node(t).kind == CompiledOpKind::Dense2)) {
                BNode &n = node(t);
                const int sub =
                    n.kind == CompiledOpKind::Dense1 ? -1 : subOf(n, q);
                n.factors.push_back(CompiledFactor{g, sub});
                continue;
            }
            // X·X on the same qubit cancels outright.
            if (g.type == GateType::X && live(t) &&
                node(t).kind == CompiledOpKind::PermX &&
                node(t).factors.size() == 1) {
                node(t).erased = true;
                stats_.cancelled += 2;
                touch(q, kBarrier);
                continue;
            }
            // Promote a pending X into a dense 1q product.
            if (live(t) && node(t).kind == CompiledOpKind::PermX) {
                BNode &n = node(t);
                n.kind = CompiledOpKind::Dense1;
                n.factors.push_back(CompiledFactor{g, -1});
                continue;
            }
            // Absorb into a neighbouring CX/SWAP as a dense 4x4 (gated:
            // only profitable once states outgrow cache).
            if (absorb2q && live(t) &&
                (node(t).kind == CompiledOpKind::PermCX ||
                 node(t).kind == CompiledOpKind::PermSwap)) {
                BNode &n = node(t);
                n.kind = CompiledOpKind::Dense2;
                n.factors.push_back(CompiledFactor{g, subOf(n, q)});
                continue;
            }
            if (diag) {
                // Hoist into the open run of commuting diagonals.
                if (live(lastDiag) && hoistOk(q)) {
                    BNode &n = node(lastDiag);
                    const std::uint64_t bit = std::uint64_t{1} << q;
                    const int width = std::popcount(n.mask | bit);
                    if (width <= options.maxDiagQubits) {
                        n.mask |= bit;
                        n.factors.push_back(CompiledFactor{g, -1});
                        touch(q, lastDiag);
                        continue;
                    }
                }
                lastDiag = newNode(CompiledOpKind::Diag, q, q,
                                   std::uint64_t{1} << q, g, -1);
                touch(q, lastDiag);
                continue;
            }
            const CompiledOpKind kind = g.type == GateType::X
                                            ? CompiledOpKind::PermX
                                            : CompiledOpKind::Dense1;
            touch(q, newNode(kind, q, q, 0, g, -1));
            continue;
        }

        // Two-qubit gates.
        const int a = g.qubits[0];
        const int b = g.qubits[1];
        const int ta = lastTouch[static_cast<std::size_t>(a)];
        const int tb = lastTouch[static_cast<std::size_t>(b)];

        // Multiply into an open dense 4x4 on the same pair.
        if (ta == tb && live(ta) &&
            node(ta).kind == CompiledOpKind::Dense2) {
            node(ta).factors.push_back(CompiledFactor{g, -1});
            continue;
        }

        if (g.type == GateType::CZ) {
            if (live(lastDiag) && hoistOk(a) && hoistOk(b)) {
                BNode &n = node(lastDiag);
                const std::uint64_t bits =
                    (std::uint64_t{1} << a) | (std::uint64_t{1} << b);
                const int width = std::popcount(n.mask | bits);
                if (width <= options.maxDiagQubits) {
                    n.mask |= bits;
                    n.factors.push_back(CompiledFactor{g, -1});
                    touch(a, lastDiag);
                    touch(b, lastDiag);
                    continue;
                }
            }
            lastDiag = newNode(CompiledOpKind::Diag, a, b,
                               (std::uint64_t{1} << a) |
                                   (std::uint64_t{1} << b),
                               g, -1);
            touch(a, lastDiag);
            touch(b, lastDiag);
            continue;
        }

        // CX·CX (same orientation) / SWAP·SWAP cancel.
        const CompiledOpKind permKind = g.type == GateType::CX
                                            ? CompiledOpKind::PermCX
                                            : CompiledOpKind::PermSwap;
        if (ta == tb && live(ta) && node(ta).kind == permKind &&
            node(ta).factors.size() == 1 &&
            (permKind == CompiledOpKind::PermSwap ||
             (node(ta).q0 == a && node(ta).q1 == b))) {
            node(ta).erased = true;
            stats_.cancelled += 2;
            touch(a, kBarrier);
            touch(b, kBarrier);
            continue;
        }

        // Pull pending dense 1q work on either leg into a dense 4x4
        // together with this entangler (gated like absorb2q above).
        const bool pullA = absorb2q && live(ta) &&
                           node(ta).kind == CompiledOpKind::Dense1;
        const bool pullB = absorb2q && live(tb) &&
                           node(tb).kind == CompiledOpKind::Dense1;
        if (pullA || pullB) {
            BNode n;
            n.kind = CompiledOpKind::Dense2;
            n.q0 = a;
            n.q1 = b;
            if (pullA) {
                for (const CompiledFactor &f : node(ta).factors)
                    n.factors.push_back(CompiledFactor{f.gate, 0});
                node(ta).erased = true;
            }
            if (pullB) {
                for (const CompiledFactor &f : node(tb).factors)
                    n.factors.push_back(CompiledFactor{f.gate, 1});
                node(tb).erased = true;
            }
            n.factors.push_back(CompiledFactor{g, -1});
            nodes.push_back(std::move(n));
            const int idx = static_cast<int>(nodes.size()) - 1;
            touch(a, idx);
            touch(b, idx);
            continue;
        }

        const int idx = newNode(permKind, a, b, 0, g, -1);
        touch(a, idx);
        touch(b, idx);
    }

    // Lay out each factor's bind-time recipe. A constant factor is
    // evaluated here, by the same Gate::matrixInto bind would call, and
    // widened the way the op's product consumes it. An op's first
    // constant factor is stored as it stands after multiplying onto the
    // identity, by the same products, so bind copies it.
    auto recipeFor = [this](const CompiledOp &op, const CompiledFactor &f,
                            bool first) {
        FactorRecipe r;
        r.sub = static_cast<std::int8_t>(f.sub);
        const Gate &g = f.gate;
        if (op.kind == CompiledOpKind::Diag)
            r.bit0 = static_cast<std::uint8_t>(localBit(op.mask, g.qubits[0]));
        if (g.isParameterized()) {
            if (g.paramIndex < 0 || g.paramIndex >= numParams_) {
                throw std::out_of_range(
                    "CompiledCircuit: parameter index " +
                    std::to_string(g.paramIndex) + " out of range");
            }
            r.kind = g.type == GateType::RX   ? FactorRecipe::Kind::RX
                     : g.type == GateType::RY ? FactorRecipe::Kind::RY
                                              : FactorRecipe::Kind::RZ;
            r.param = static_cast<std::uint32_t>(g.paramIndex);
            r.scale = g.paramScale;
            r.offset = g.angle;
            return r;
        }
        r.consts = static_cast<std::uint32_t>(recipeConsts_.size());
        Complex m[16];
        g.matrixInto(m);
        switch (op.kind) {
          case CompiledOpKind::Dense1:
          case CompiledOpKind::PermX:
            if (first) {
                Complex id[4] = {Complex(1.0, 0.0), Complex(0.0, 0.0),
                                 Complex(0.0, 0.0), Complex(1.0, 0.0)};
                mulLeft2x2(m, id);
                std::copy(id, id + 4, m);
            }
            recipeConsts_.insert(recipeConsts_.end(), m, m + 4);
            break;
          case CompiledOpKind::Diag: {
            if (gateArity(g.type) == 2) {
                // CZ: phase -1 where both acted-on bits are set.
                r.kind = FactorRecipe::Kind::CZ;
                r.bit1 = static_cast<std::uint8_t>(
                    localBit(op.mask, g.qubits[1]));
                break;
            }
            Complex pair[2] = {m[0], m[3]};
            if (first) {
                pair[0] = Complex(1.0, 0.0) * pair[0];
                pair[1] = Complex(1.0, 0.0) * pair[1];
            }
            recipeConsts_.insert(recipeConsts_.end(), pair, pair + 2);
            break;
          }
          case CompiledOpKind::Dense2:
          case CompiledOpKind::PermCX:
          case CompiledOpKind::PermSwap: {
            Complex wide[16];
            if (f.sub >= 0) {
                expand1qTo4x4(m, f.sub, wide);
            } else if (g.qubits[0] == op.q1 && g.qubits[1] == op.q0) {
                // The factor's qubit order is reversed relative to the
                // op: permute local indices by swapping their two bits.
                auto p = [](int x) { return ((x & 1) << 1) | (x >> 1); };
                for (int row = 0; row < 4; ++row)
                    for (int col = 0; col < 4; ++col)
                        wide[p(row) * 4 + p(col)] = m[row * 4 + col];
            } else {
                std::copy(m, m + 16, wide);
            }
            if (first) {
                Complex id[16] = {};
                id[0] = id[5] = id[10] = id[15] = Complex(1.0, 0.0);
                mulLeft4x4(wide, id);
                std::copy(id, id + 16, wide);
            }
            recipeConsts_.insert(recipeConsts_.end(), wide, wide + 16);
            break;
          }
        }
        return r;
    };

    // Emit the op stream: constant nodes evaluate into the const pool
    // now; parameterized nodes are left to bind().
    std::size_t numFactors = 0;
    for (const BNode &n : nodes)
        numFactors += n.erased ? 0 : n.factors.size();
    factors_.reserve(numFactors);
    recipes_.reserve(numFactors);
    for (const BNode &n : nodes) {
        if (n.erased)
            continue;
        bool parameterized = false;
        for (const CompiledFactor &f : n.factors)
            parameterized = parameterized || f.gate.isParameterized();

        const std::size_t size = matrixSize(n.kind, n.mask);
        CompiledOp op;
        op.kind = n.kind;
        op.parameterized = parameterized;
        op.q0 = n.q0;
        op.q1 = n.q1;
        op.mask = n.mask;
        op.firstFactor = static_cast<std::uint32_t>(factors_.size());
        op.numFactors = static_cast<std::uint32_t>(n.factors.size());
        for (const CompiledFactor &f : n.factors) {
            recipes_.push_back(recipeFor(op, f, factors_.size() ==
                                                    op.firstFactor));
            factors_.push_back(f);
        }

        if (parameterized) {
            op.offset = static_cast<std::uint32_t>(bindPoolSize_);
            bindPoolSize_ += size;
        } else {
            op.offset = static_cast<std::uint32_t>(constPool_.size());
            constPool_.resize(constPool_.size() + size);
            evalOp(op, nullptr, constPool_.data() + op.offset);
        }
        ops_.push_back(op);

        ++stats_.ops;
        switch (n.kind) {
          case CompiledOpKind::Dense1:
            ++stats_.dense1;
            break;
          case CompiledOpKind::Dense2:
            ++stats_.dense2;
            break;
          case CompiledOpKind::Diag:
            ++stats_.diag;
            break;
          case CompiledOpKind::PermX:
          case CompiledOpKind::PermCX:
          case CompiledOpKind::PermSwap:
            ++stats_.perm;
            break;
        }
    }
}

void
CompiledCircuit::evalOp(const CompiledOp &op, const double *params,
                        Complex *out) const
{
    const FactorRecipe *f = recipes_.data() + op.firstFactor;
    const FactorRecipe *const end = f + op.numFactors;
    const Complex *consts = recipeConsts_.data();
    // A rotation factor's matrix lands here; a constant one is read in
    // place.
    Complex m[4];
    auto factorMatrix = [&](const FactorRecipe &r) -> const Complex * {
        if (r.kind == FactorRecipe::Kind::Const)
            return consts + r.consts;
        rotationInto(r, params, m);
        return m;
    };

    // The first factor is written as it stands after multiplying onto
    // the identity: a constant one as the compiler stored it, a
    // rotation in closed form. The others multiply in, in application
    // order.
    const FactorRecipe &first = *f++;
    switch (op.kind) {
      case CompiledOpKind::Dense1:
      case CompiledOpKind::PermX: {
        if (first.kind == FactorRecipe::Kind::Const)
            std::copy(consts + first.consts, consts + first.consts + 4, out);
        else
            firstRotationInto(first, params, out);
        for (; f != end; ++f)
            mulLeft2x2(factorMatrix(*f), out);
        return;
      }
      case CompiledOpKind::Dense2:
      case CompiledOpKind::PermCX:
      case CompiledOpKind::PermSwap: {
        if (first.kind == FactorRecipe::Kind::Const) {
            std::copy(consts + first.consts, consts + first.consts + 16,
                      out);
        } else {
            // A row of the identity product is a sum from (0, 0) of one
            // entry times (1, 0) and three times (0, 0): for finite
            // entries the entry with any -0 turned into +0.
            firstRotationInto(first, params, m);
            if (std::isnan(m[0].real())) {
                fillNaN(out, 16);
            } else {
                expand1qTo4x4(m, first.sub, out);
                for (int k = 0; k < 16; ++k)
                    out[k] = Complex(0.0, 0.0) + out[k];
            }
        }
        Complex wide[16];
        for (; f != end; ++f) {
            const Complex *fm = factorMatrix(*f);
            if (f->kind != FactorRecipe::Kind::Const) {
                expand1qTo4x4(fm, f->sub, wide);
                fm = wide;
            }
            mulLeft4x4(fm, out);
        }
        return;
      }
      case CompiledOpKind::Diag: {
        const std::size_t size = matrixSize(op.kind, op.mask);
        if (first.kind == FactorRecipe::Kind::CZ) {
            const std::size_t both = (std::size_t{1} << first.bit0) |
                                     (std::size_t{1} << first.bit1);
            for (std::size_t li = 0; li < size; ++li)
                out[li] = (li & both) == both ? -Complex(1.0, 0.0)
                                              : Complex(1.0, 0.0);
        } else {
            // A Diag factor's pair: (u00, u11) of its 2x2.
            Complex d[2];
            if (first.kind == FactorRecipe::Kind::Const) {
                d[0] = consts[first.consts];
                d[1] = consts[first.consts + 1];
            } else {
                firstRotationInto(first, params, m);
                d[0] = m[0];
                d[1] = m[3];
            }
            for (std::size_t li = 0; li < size; ++li)
                out[li] = d[(li >> first.bit0) & 1];
        }
        for (; f != end; ++f) {
            if (f->kind == FactorRecipe::Kind::CZ) {
                const std::size_t both = (std::size_t{1} << f->bit0) |
                                         (std::size_t{1} << f->bit1);
                for (std::size_t li = 0; li < size; ++li)
                    if ((li & both) == both)
                        out[li] = -out[li];
                continue;
            }
            const Complex *fm = factorMatrix(*f);
            const Complex d[2] = {fm[0],
                                  f->kind == FactorRecipe::Kind::Const
                                      ? fm[1]
                                      : fm[3]};
            for (std::size_t li = 0; li < size; ++li)
                out[li] *= d[(li >> f->bit0) & 1];
        }
        return;
      }
    }
    throw std::logic_error("CompiledCircuit::evalOp: unknown op kind");
}

void
CompiledCircuit::bind(const std::vector<double> &params,
                      std::vector<Complex> &pool) const
{
    if (params.size() != static_cast<std::size_t>(numParams_)) {
        throw std::invalid_argument(
            "CompiledCircuit::bind: expected " +
            std::to_string(numParams_) + " parameters, got " +
            std::to_string(params.size()));
    }
    pool.resize(bindPoolSize_);
    for (const CompiledOp &op : ops_)
        if (op.parameterized)
            evalOp(op, params.data(), pool.data() + op.offset);
}

} // namespace qismet
