#include "sim/kraus.hpp"

#include <cmath>
#include <stdexcept>

namespace qismet {

KrausChannel::KrausChannel(std::vector<Matrix> operators)
    : ops_(std::move(operators))
{
    if (ops_.empty())
        throw std::invalid_argument("KrausChannel: no operators");
    const std::size_t n = ops_.front().rows();
    if (n != 2 && n != 4)
        throw std::invalid_argument("KrausChannel: must act on 1 or 2 qubits");
    for (const auto &k : ops_)
        if (k.rows() != n || k.cols() != n)
            throw std::invalid_argument("KrausChannel: inconsistent shapes");
}

int
KrausChannel::numQubits() const
{
    if (ops_.empty())
        throw std::logic_error("KrausChannel::numQubits: empty channel");
    return ops_.front().rows() == 2 ? 1 : 2;
}

bool
KrausChannel::isTracePreserving(double tol) const
{
    const std::size_t n = ops_.front().rows();
    Matrix sum(n, n);
    for (const auto &k : ops_)
        sum += k.adjoint() * k;
    return sum.maxAbsDiff(Matrix::identity(n)) <= tol;
}

KrausChannel
KrausChannel::then(const KrausChannel &after) const
{
    if (after.ops_.front().rows() != ops_.front().rows())
        throw std::invalid_argument("KrausChannel::then: shape mismatch");
    std::vector<Matrix> combined;
    combined.reserve(ops_.size() * after.ops_.size());
    for (const auto &b : after.ops_)
        for (const auto &a : ops_)
            combined.push_back(b * a);
    return KrausChannel(std::move(combined));
}

KrausChannel
KrausChannel::identity1q()
{
    return KrausChannel({Matrix::identity(2)});
}

namespace {

void
checkProbability(double p, const char *what)
{
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument(std::string(what) +
                                    ": probability outside [0, 1]");
}

Matrix
pauli(char axis)
{
    const Complex i(0.0, 1.0);
    switch (axis) {
      case 'I': return Matrix::identity(2);
      case 'X': return Matrix::fromRows({{0, 1}, {1, 0}});
      case 'Y': return Matrix::fromRows({{0, -i}, {i, 0}});
      case 'Z': return Matrix::fromRows({{1, 0}, {0, -1}});
    }
    throw std::logic_error("pauli: bad axis");
}

} // namespace

KrausChannel
KrausChannel::depolarizing1q(double p)
{
    checkProbability(p, "depolarizing1q");
    std::vector<Matrix> ops;
    ops.push_back(pauli('I') * Complex(std::sqrt(1.0 - 3.0 * p / 4.0), 0.0));
    for (char axis : {'X', 'Y', 'Z'})
        ops.push_back(pauli(axis) * Complex(std::sqrt(p / 4.0), 0.0));
    return KrausChannel(std::move(ops));
}

KrausChannel
KrausChannel::depolarizing2q(double p)
{
    checkProbability(p, "depolarizing2q");
    std::vector<Matrix> ops;
    const char axes[] = {'I', 'X', 'Y', 'Z'};
    for (char a : axes) {
        for (char b : axes) {
            const bool ident = (a == 'I' && b == 'I');
            const double w = ident ? 1.0 - 15.0 * p / 16.0 : p / 16.0;
            ops.push_back(pauli(a).kron(pauli(b)) *
                          Complex(std::sqrt(w), 0.0));
        }
    }
    return KrausChannel(std::move(ops));
}

KrausChannel
KrausChannel::amplitudeDamping(double gamma)
{
    checkProbability(gamma, "amplitudeDamping");
    Matrix k0 = Matrix::fromRows({{1, 0}, {0, std::sqrt(1.0 - gamma)}});
    Matrix k1 = Matrix::fromRows({{0, std::sqrt(gamma)}, {0, 0}});
    return KrausChannel({k0, k1});
}

KrausChannel
KrausChannel::phaseDamping(double lambda)
{
    checkProbability(lambda, "phaseDamping");
    Matrix k0 = Matrix::fromRows({{1, 0}, {0, std::sqrt(1.0 - lambda)}});
    Matrix k1 = Matrix::fromRows({{0, 0}, {0, std::sqrt(lambda)}});
    return KrausChannel({k0, k1});
}

KrausChannel
KrausChannel::bitFlip(double p)
{
    checkProbability(p, "bitFlip");
    Matrix k0 = pauli('I') * Complex(std::sqrt(1.0 - p), 0.0);
    Matrix k1 = pauli('X') * Complex(std::sqrt(p), 0.0);
    return KrausChannel({k0, k1});
}

KrausChannel
KrausChannel::thermalRelaxation(double t1_ns, double t2_ns,
                                double duration_ns)
{
    if (t1_ns <= 0.0 || t2_ns <= 0.0)
        throw std::invalid_argument("thermalRelaxation: T1/T2 must be > 0");
    if (t2_ns > 2.0 * t1_ns)
        throw std::invalid_argument("thermalRelaxation: need T2 <= 2*T1");
    if (duration_ns < 0.0)
        throw std::invalid_argument("thermalRelaxation: negative duration");

    const double gamma = 1.0 - std::exp(-duration_ns / t1_ns);

    // Off-diagonal decay from amplitude damping alone is sqrt(1-gamma) =
    // exp(-t/(2 T1)); the remaining dephasing must supply
    // exp(-t/T2) / exp(-t/(2 T1)) = exp(-t (1/T2 - 1/(2 T1))).
    const double extra = std::exp(-duration_ns *
                                  (1.0 / t2_ns - 1.0 / (2.0 * t1_ns)));
    // Phase damping with parameter lambda scales off-diagonals by
    // sqrt(1 - lambda).
    const double lambda = 1.0 - extra * extra;

    return amplitudeDamping(gamma).then(
        phaseDamping(std::min(1.0, std::max(0.0, lambda))));
}

} // namespace qismet
