#include "optim/spsa.hpp"

#include <cmath>
#include <stdexcept>

namespace qismet {

double
SpsaGains::stepSize(int k) const
{
    return a / std::pow(static_cast<double>(k) + 1.0 + bigA, alpha);
}

double
SpsaGains::perturbation(int k) const
{
    return c / std::pow(static_cast<double>(k) + 1.0, gamma);
}

SpsaGains
SpsaGains::forHorizon(std::size_t horizon, double initial_step, double c)
{
    SpsaGains g;
    g.bigA = std::max(10.0, 0.1 * static_cast<double>(horizon));
    g.alpha = 0.602;
    g.gamma = 0.101;
    g.c = c;
    g.a = initial_step * std::pow(1.0 + g.bigA, g.alpha);
    return g;
}

Spsa::Spsa(SpsaGains gains) : gains_(gains)
{
    // Negated, so that NaN fails too.
    if (!(gains_.a > 0.0 && gains_.c > 0.0))
        throw std::invalid_argument("Spsa: gains must be positive");
}

std::vector<double>
Spsa::rademacher(std::size_t dim, Rng &rng)
{
    std::vector<double> delta(dim);
    for (auto &d : delta)
        d = static_cast<double>(rng.sign());
    return delta;
}

std::vector<double>
Spsa::pairGradient(const std::vector<double> &delta, double e_plus,
                   double e_minus, double c_k)
{
    std::vector<double> g(delta.size());
    const double diff = (e_plus - e_minus) / (2.0 * c_k);
    for (std::size_t i = 0; i < delta.size(); ++i)
        g[i] = diff / delta[i];
    return g;
}

std::vector<std::vector<double>>
Spsa::plan(const std::vector<double> &theta, int k, Rng &rng)
{
    // delta_ is redrawn in place; the only allocations are the points.
    delta_.resize(theta.size());
    for (auto &d : delta_)
        d = static_cast<double>(rng.sign());
    const double c_k = gains_.perturbation(k);
    std::vector<std::vector<double>> points(2, theta);
    for (std::size_t i = 0; i < theta.size(); ++i) {
        points[0][i] += c_k * delta_[i];
        points[1][i] -= c_k * delta_[i];
    }
    return points;
}

std::vector<double>
Spsa::propose(const std::vector<double> &theta, int k,
              const std::vector<double> &energies)
{
    if (energies.size() != 2)
        throw std::invalid_argument("Spsa::propose: expected 2 energies");
    if (delta_.size() != theta.size())
        throw std::logic_error("Spsa::propose: plan() not called");

    // pairGradient's g[i] = diff / delta[i], formed in place.
    const double diff =
        (energies[0] - energies[1]) / (2.0 * gains_.perturbation(k));
    const double a_k = gains_.stepSize(k);
    std::vector<double> next = theta;
    for (std::size_t i = 0; i < theta.size(); ++i)
        next[i] -= a_k * (diff / delta_[i]);
    return next;
}

void
Spsa::saveState(Encoder &enc) const
{
    enc.writeVecF64(delta_);
}

void
Spsa::loadState(Decoder &dec)
{
    delta_ = dec.readVecF64();
}

} // namespace qismet
