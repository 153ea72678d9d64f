#include "pauli/pauli_sum.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

namespace qismet {

PauliSum::PauliSum(int num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits <= 0)
        throw std::invalid_argument("PauliSum: num_qubits must be > 0");
}

void
PauliSum::add(double coefficient, PauliString pauli)
{
    if (pauli.numQubits() != numQubits_)
        throw std::invalid_argument("PauliSum::add: width mismatch");
    terms_.emplace_back(coefficient, std::move(pauli));
}

void
PauliSum::add(double coefficient, const std::string &label)
{
    add(coefficient, PauliString::fromLabel(label));
}

void
PauliSum::simplify(double tol)
{
    std::map<PauliString, std::size_t> index;
    std::vector<PauliTerm> merged;
    for (const PauliTerm &t : terms_) {
        auto it = index.find(t.pauli);
        if (it == index.end()) {
            index.emplace(t.pauli, merged.size());
            merged.push_back(t);
        } else {
            merged[it->second].coefficient += t.coefficient;
        }
    }
    terms_.clear();
    for (auto &t : merged)
        if (std::abs(t.coefficient) > tol)
            terms_.push_back(std::move(t));
}

double
PauliSum::l1Norm() const
{
    double s = 0.0;
    for (const auto &t : terms_)
        s += std::abs(t.coefficient);
    return s;
}

double
PauliSum::identityCoefficient() const
{
    double s = 0.0;
    for (const auto &t : terms_)
        if (t.pauli.isIdentity())
            s += t.coefficient;
    return s;
}

Matrix
PauliSum::toMatrix() const
{
    const std::size_t dim = std::size_t{1} << numQubits_;
    Matrix m(dim, dim);
    for (const auto &t : terms_)
        m += t.pauli.toMatrix() * Complex(t.coefficient, 0.0);
    return m;
}

PauliSum
PauliSum::operator+(const PauliSum &other) const
{
    if (other.numQubits_ != numQubits_)
        throw std::invalid_argument("PauliSum::operator+: width mismatch");
    PauliSum out = *this;
    for (const auto &t : other.terms_)
        out.terms_.push_back(t);
    out.simplify();
    return out;
}

PauliSum
PauliSum::operator*(double scalar) const
{
    PauliSum out = *this;
    for (auto &t : out.terms_)
        t.coefficient *= scalar;
    return out;
}

std::string
PauliSum::toString() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &t : terms_) {
        if (!first)
            os << " + ";
        os << t.coefficient << " * " << t.pauli.label();
        first = false;
    }
    if (first)
        os << "0";
    return os.str();
}

} // namespace qismet
