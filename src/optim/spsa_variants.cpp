#include "optim/spsa_variants.hpp"

#include <cmath>
#include <stdexcept>

#include "common/eigen.hpp"
#include "common/matrix.hpp"

namespace qismet {

ResamplingSpsa::ResamplingSpsa(SpsaGains gains, int samples)
    : Spsa(gains), samples_(samples)
{
    if (samples < 1)
        throw std::invalid_argument("ResamplingSpsa: samples must be >= 1");
}

std::vector<std::vector<double>>
ResamplingSpsa::plan(const std::vector<double> &theta, int k, Rng &rng)
{
    deltas_.clear();
    std::vector<std::vector<double>> points;
    const double c_k = gains_.perturbation(k);
    for (int s = 0; s < samples_; ++s) {
        deltas_.push_back(rademacher(theta.size(), rng));
        std::vector<double> plus = theta;
        std::vector<double> minus = theta;
        for (std::size_t i = 0; i < theta.size(); ++i) {
            plus[i] += c_k * deltas_.back()[i];
            minus[i] -= c_k * deltas_.back()[i];
        }
        points.push_back(std::move(plus));
        points.push_back(std::move(minus));
    }
    return points;
}

std::vector<double>
ResamplingSpsa::propose(const std::vector<double> &theta, int k,
                        const std::vector<double> &energies)
{
    if (energies.size() != 2 * static_cast<std::size_t>(samples_))
        throw std::invalid_argument("ResamplingSpsa::propose: energy count");

    std::vector<double> g(theta.size(), 0.0);
    const double c_k = gains_.perturbation(k);
    for (int s = 0; s < samples_; ++s) {
        const auto gs = pairGradient(deltas_[static_cast<std::size_t>(s)],
                                     energies[2 * s], energies[2 * s + 1],
                                     c_k);
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] += gs[i] / static_cast<double>(samples_);
    }

    const double a_k = gains_.stepSize(k);
    std::vector<double> next = theta;
    for (std::size_t i = 0; i < theta.size(); ++i)
        next[i] -= a_k * g[i];
    return next;
}

SecondOrderSpsa::SecondOrderSpsa(SpsaGains gains, double regularization)
    : Spsa(gains), regularization_(regularization)
{
    if (regularization <= 0.0)
        throw std::invalid_argument(
            "SecondOrderSpsa: regularization must be > 0");
}

std::vector<std::vector<double>>
SecondOrderSpsa::plan(const std::vector<double> &theta, int k, Rng &rng)
{
    delta_ = rademacher(theta.size(), rng);
    delta2_ = rademacher(theta.size(), rng);
    const double c_k = gains_.perturbation(k);

    // Points: θ+cΔ, θ-cΔ (gradient pair) and the same pair shifted by
    // cΔ₂ (Hessian probes).
    std::vector<std::vector<double>> pts(4, theta);
    for (std::size_t i = 0; i < theta.size(); ++i) {
        pts[0][i] += c_k * delta_[i];
        pts[1][i] -= c_k * delta_[i];
        pts[2][i] += c_k * (delta_[i] + delta2_[i]);
        pts[3][i] += c_k * (-delta_[i] + delta2_[i]);
    }
    return pts;
}

std::vector<double>
SecondOrderSpsa::propose(const std::vector<double> &theta, int k,
                         const std::vector<double> &energies)
{
    if (energies.size() != 4)
        throw std::invalid_argument("SecondOrderSpsa::propose: energy count");
    const std::size_t d = theta.size();
    const double c_k = gains_.perturbation(k);

    const std::vector<double> g =
        pairGradient(delta_, energies[0], energies[1], c_k);

    // Hessian sample: δ = [E(θ+cΔ+cΔ₂) - E(θ+cΔ)] - [E(θ-cΔ+cΔ₂) - E(θ-cΔ)]
    // Ĥ = δ / (2 c²) · (Δ Δ₂ᵀ + Δ₂ Δᵀ) / 2.
    const double delta_e =
        (energies[2] - energies[0]) - (energies[3] - energies[1]);
    const double scale = delta_e / (4.0 * c_k * c_k);

    if (hessian_.empty())
        hessian_.assign(d, std::vector<double>(d, 0.0));

    // Exponential smoothing over iterations.
    const double w = 1.0 / static_cast<double>(hessianSamples_ + 1);
    for (std::size_t r = 0; r < d; ++r)
        for (std::size_t c = 0; c < d; ++c) {
            const double sample =
                scale * (delta_[r] * delta2_[c] + delta2_[r] * delta_[c]);
            hessian_[r][c] = (1.0 - w) * hessian_[r][c] + w * sample;
        }
    ++hessianSamples_;

    // Precondition with the matrix absolute value |H̄| + λI (Spall's
    // 2-SPSA PD enforcement): a noisy smoothed Hessian is typically
    // indefinite, and solving against it directly would invert the
    // step along its negative eigendirections.
    const EigenResult eig = eigRealSymmetric(hessian_);
    std::vector<double> step(d, 0.0);
    for (std::size_t m = 0; m < d; ++m) {
        // Project g on eigenvector m, scale by 1/(|λ_m| + reg).
        double proj = 0.0;
        for (std::size_t i = 0; i < d; ++i)
            proj += eig.vectors(i, m).real() * g[i];
        const double denom = std::abs(eig.values[m]) + regularization_;
        for (std::size_t i = 0; i < d; ++i)
            step[i] += eig.vectors(i, m).real() * proj / denom;
    }

    // Trust region: an ill-conditioned Hessian estimate (common under
    // transients) can inflate the preconditioned step enormously; cap
    // its norm at a small multiple of the raw gradient's.
    double g_norm = 0.0, s_norm = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        g_norm += g[i] * g[i];
        s_norm += step[i] * step[i];
    }
    g_norm = std::sqrt(g_norm);
    s_norm = std::sqrt(s_norm);
    const double cap = 4.0 * g_norm;
    if (s_norm > cap && s_norm > 0.0)
        for (auto &s : step)
            s *= cap / s_norm;

    const double a_k = gains_.stepSize(k);
    std::vector<double> next = theta;
    for (std::size_t i = 0; i < d; ++i)
        next[i] -= a_k * step[i];
    return next;
}

void
ResamplingSpsa::saveState(Encoder &enc) const
{
    Spsa::saveState(enc);
    enc.writeU64(deltas_.size());
    for (const auto &delta : deltas_)
        enc.writeVecF64(delta);
}

void
ResamplingSpsa::loadState(Decoder &dec)
{
    Spsa::loadState(dec);
    const std::uint64_t count = dec.readU64();
    deltas_.clear();
    for (std::uint64_t i = 0; i < count; ++i)
        deltas_.push_back(dec.readVecF64());
}

void
SecondOrderSpsa::saveState(Encoder &enc) const
{
    Spsa::saveState(enc);
    enc.writeVecF64(delta2_);
    enc.writeI64(hessianSamples_);
    enc.writeU64(hessian_.size());
    for (const auto &row : hessian_)
        enc.writeVecF64(row);
}

void
SecondOrderSpsa::loadState(Decoder &dec)
{
    Spsa::loadState(dec);
    delta2_ = dec.readVecF64();
    hessianSamples_ = checkedInt<int>("hessianSamples", dec.readI64(), 0);
    const std::uint64_t rows = dec.readU64();
    hessian_.clear();
    for (std::uint64_t i = 0; i < rows; ++i)
        hessian_.push_back(dec.readVecF64());
}

} // namespace qismet
