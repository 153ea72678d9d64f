#include "common/rng.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/format_double.hpp"

namespace qismet {

namespace {

/** SplitMix64 step used to expand seeds into engine state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
deriveStreamSeed(std::uint64_t root, std::uint64_t domain,
                 std::uint64_t index)
{
    // Each level passes through a full SplitMix64 avalanche before the
    // next is folded in. The leading constant domain-separates derived
    // seeds from raw user seeds fed straight to Rng(seed).
    std::uint64_t x = root ^ 0x243F6A8885A308D3ull;
    std::uint64_t h = splitmix64(x);
    x = h ^ domain;
    h = splitmix64(x);
    x = h ^ index;
    return splitmix64(x);
}

Xoshiro256::Xoshiro256(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

void
Xoshiro256::jump()
{
    static constexpr std::uint64_t kJump[] = {
        0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull,
        0xA9582618E03FC9AAull, 0x39ABDC4529B1661Cull};

    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump & (1ull << b)) {
                s0 ^= state_[0];
                s1 ^= state_[1];
                s2 ^= state_[2];
                s3 ^= state_[3];
            }
            (*this)();
        }
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
}

std::uint64_t
Xoshiro256::stateDigest() const
{
    return rotl(state_[0], 7) ^ rotl(state_[1], 21) ^ rotl(state_[2], 37) ^
           rotl(state_[3], 51);
}

std::array<std::uint64_t, 4>
Xoshiro256::state() const
{
    return {state_[0], state_[1], state_[2], state_[3]};
}

void
Xoshiro256::setState(const std::array<std::uint64_t, 4> &state)
{
    for (std::size_t i = 0; i < 4; ++i)
        state_[i] = state[i];
}

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

RngState
Rng::saveState() const
{
    RngState state;
    state.engine = engine_.state();
    state.hasSpareNormal = hasSpareNormal_;
    state.spareNormal = spareNormal_;
    return state;
}

void
Rng::restoreState(const RngState &state)
{
    engine_.setState(state.engine);
    hasSpareNormal_ = state.hasSpareNormal;
    spareNormal_ = state.spareNormal;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        throw std::invalid_argument("Rng::uniformInt: n must be positive");
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() -
        std::numeric_limits<std::uint64_t>::max() % n;
    std::uint64_t x;
    do {
        x = engine_();
    } while (x >= limit);
    return x % n;
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spareNormal_ = v * m;
    hasSpareNormal_ = true;
    return u * m;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        throw std::invalid_argument("Rng::exponential: rate must be positive");
    // 1 - uniform() is in (0, 1], so the log argument is never zero.
    return -std::log(1.0 - uniform()) / rate;
}

std::uint64_t
Rng::poisson(double mean)
{
    return poisson(mean, std::exp(-mean));
}

std::uint64_t
Rng::poisson(double mean, double expNegMean)
{
    // Negated so that a NaN fails it; an infinite mean would reach the
    // integer cast below.
    if (!(mean >= 0.0) || std::isinf(mean))
        throw std::invalid_argument("Rng::poisson: mean = " +
                                    formatDouble(mean) +
                                    " must be finite and >= 0");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's multiplication method.
        const double limit = expNegMean;
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation with continuity correction; adequate for the
    // large-mean shot counts used in this library.
    const double x = normal(mean, std::sqrt(mean));
    return x < 0.5 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            throw std::invalid_argument("Rng::discrete: negative weight");
        total += w;
    }
    if (total <= 0.0)
        throw std::invalid_argument("Rng::discrete: all weights zero");
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

int
Rng::sign()
{
    return (engine_() & 1ull) ? 1 : -1;
}

Rng
Rng::split()
{
    return Rng(engine_());
}

Rng
Rng::splitStream(std::uint64_t domain, std::uint64_t index) const
{
    return Rng(deriveStreamSeed(engine_.stateDigest(), domain, index));
}

Rng
Rng::splitAt(std::uint64_t index) const
{
    // One SplitMix64 round over (state digest, counter) decorrelates
    // adjacent indices; the child constructor expands the result into a
    // well-mixed xoshiro state.
    std::uint64_t x =
        engine_.stateDigest() + index * 0x9E3779B97F4A7C15ull;
    return Rng(splitmix64(x));
}

} // namespace qismet
