/**
 * @file
 * Deterministic random number generation for every stochastic component
 * in the QISMET reproduction.
 *
 * All simulators, noise processes, optimizers and workload generators take
 * an explicit seed so that every test and every figure-reproduction bench
 * is bit-reproducible. The underlying engine is xoshiro256++, a small,
 * fast, high-quality generator; it satisfies the C++
 * UniformRandomBitGenerator requirements so it can also feed standard
 * distributions.
 */

#ifndef QISMET_COMMON_RNG_HPP
#define QISMET_COMMON_RNG_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qismet {

/**
 * Stream-allocation convention (the serve layer's collision-safety
 * contract).
 *
 * Hand-rolled stream offsets — `seed + tenantId`, `seed * K + C`,
 * `splitAt(tenantId * 1000 + runId)` — are forbidden for new code:
 * linear packings collide under adversarial ID patterns (tenant 1 /
 * run 1000 aliases tenant 2 / run 0), and affine `seed * A + B`
 * derivations in two components can be mapped onto each other by
 * solving one linear congruence. Instead, derive every stream as
 *
 *     deriveStreamSeed(root, StreamDomain::kX, index)
 *
 * where each level (root, domain, index) passes through a full
 * SplitMix64 avalanche before the next is folded in. No arithmetic
 * relation among roots, domains or indices can then relate two derived
 * seeds; residual collisions are 64-bit-birthday events, not
 * constructible ones. The qismet-lint rule `stream-offset` enforces
 * this in src/serve, where tenant/job IDs are caller-controlled.
 * (The pre-serve affine derivations inside src/core are kept verbatim
 * for trace stability; their seeds are process-internal, not
 * caller-controlled.)
 */
namespace StreamDomain {
/** One VQA run multiplexed by the serve layer (index = serve job id). */
inline constexpr std::uint64_t kServeRun = 1;
/** Backend calibration stream (index = backend id). */
inline constexpr std::uint64_t kBackend = 2;
/** Per-lease backend stream (index = lease epoch). */
inline constexpr std::uint64_t kBackendLease = 3;
/** Soak-driver workload generator (index = spec ordinal). */
inline constexpr std::uint64_t kSoakSpec = 4;
/** Crash-plan draws for one soak spec (index = spec ordinal). */
inline constexpr std::uint64_t kSoakCrashPlan = 5;
/** Chaos backend-outage windows (index = backend id). */
inline constexpr std::uint64_t kChaosOutage = 6;
/** Chaos backend-slowdown windows (index = backend id). */
inline constexpr std::uint64_t kChaosSlowdown = 7;
/** Chaos calibration-drift storms (index = backend id). */
inline constexpr std::uint64_t kChaosStorm = 8;
/** Chaos tenant burst floods (index = flood ordinal). */
inline constexpr std::uint64_t kChaosFlood = 9;
/** Chaos-driver workload generator (index = spec ordinal). */
inline constexpr std::uint64_t kChaosWorkload = 10;
} // namespace StreamDomain

/**
 * Derive the seed of an independent sub-stream from (root, domain,
 * index), avalanching at every level (see StreamDomain above).
 */
std::uint64_t deriveStreamSeed(std::uint64_t root, std::uint64_t domain,
                               std::uint64_t index);

/**
 * xoshiro256++ pseudo random engine (Blackman & Vigna).
 *
 * Satisfies UniformRandomBitGenerator. Seeded through SplitMix64 so that
 * any 64-bit seed (including 0) produces a well-mixed initial state.
 */
class Xoshiro256
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; the state is expanded via SplitMix64. */
    explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /**
     * Advance the engine and return the next 64 random bits. Defined
     * inline below: the shot sampler draws several of these per shot.
     */
    result_type operator()();

    /**
     * Jump the engine forward by 2^128 steps.
     *
     * Used to derive independent streams from a single seed (one jump per
     * stream); streams derived this way never overlap in practice.
     */
    void jump();

    /**
     * Deterministic 64-bit digest of the current state, without
     * advancing it. Feeds the counter-based Rng::splitAt derivation.
     */
    std::uint64_t stateDigest() const;

    /** Raw engine state (for checkpointing). */
    std::array<std::uint64_t, 4> state() const;

    /** Restore a state previously captured with state(). */
    void setState(const std::array<std::uint64_t, 4> &state);

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

inline Xoshiro256::result_type
Xoshiro256::operator()()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

/**
 * Complete serializable state of an Rng: the engine words plus the
 * Marsaglia-polar spare-normal cache. Restoring it resumes the stream
 * bit-exactly, including a buffered second normal deviate.
 */
struct RngState
{
    std::array<std::uint64_t, 4> engine = {};
    bool hasSpareNormal = false;
    double spareNormal = 0.0;
};

/**
 * Convenience wrapper bundling an engine with the distributions the
 * library needs.
 *
 * Not thread-safe; give each thread / component its own Rng.
 */
class Rng
{
  public:
    /** Construct with the given seed. */
    explicit Rng(std::uint64_t seed = 42);

    /** Uniform double in [0, 1): uniformBits() scaled by 2^-53. */
    double uniform();

    /**
     * The 53-bit integer behind one uniform() draw, consuming the same
     * engine step: uniform() is exactly this times 2^-53. For loops
     * that compare draws as integers (the shot sampler).
     */
    std::uint64_t uniformBits();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) using rejection sampling (unbiased). */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal deviate (Marsaglia polar method). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential deviate with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Poisson deviate with the given mean (Knuth for small, PTRS-lite via normal approx for large). */
    std::uint64_t poisson(double mean);

    /**
     * poisson(mean) given expNegMean = std::exp(-mean), for a caller that
     * draws at one mean many times: the same draws and the same value,
     * without the exp per call.
     */
    std::uint64_t poisson(double mean, double expNegMean);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * @param weights Non-negative weights; at least one must be positive.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Random sign: +1 with probability 1/2, otherwise -1. */
    int sign();

    /**
     * Derive an independent child generator.
     *
     * The child is seeded from this generator's stream, so different calls
     * yield different (deterministic) children.
     */
    Rng split();

    /**
     * Counter-based split: derive the index-th child sub-stream from the
     * *current* state without advancing this generator.
     *
     * This is the parallel engine's determinism primitive: a component
     * that fans out N tasks derives splitAt(0..N-1) from its seed Rng
     * before dispatch, so every task's randomness is a pure function of
     * (seed, task index) — independent of thread scheduling and of how
     * much randomness sibling tasks consume. Children at distinct
     * indices are pairwise uncorrelated (tested); calling splitAt twice
     * with the same index and no intervening draws yields the same
     * child by design.
     */
    Rng splitAt(std::uint64_t index) const;

    /**
     * Domain-separated counter split: derive the child stream for
     * (domain, index) from the current state without advancing it.
     *
     * The collision-safe form of splitAt for caller-controlled indices
     * (tenant IDs, serve job IDs): the derivation avalanches root,
     * domain and index independently (deriveStreamSeed), so children of
     * different domains can never be aliased by arithmetic on the
     * indices. See the StreamDomain convention note above.
     */
    Rng splitStream(std::uint64_t domain, std::uint64_t index) const;

    /** Access the raw engine (for std:: distributions). */
    Xoshiro256 &engine() { return engine_; }

    /** Capture the full stream position (for checkpointing). */
    RngState saveState() const;

    /** Resume from a position captured with saveState(). */
    void restoreState(const RngState &state);

  private:
    Xoshiro256 engine_;
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

inline std::uint64_t
Rng::uniformBits()
{
    return engine_() >> 11;
}

inline double
Rng::uniform()
{
    // 53 random bits into the mantissa: uniform on [0, 1).
    return static_cast<double>(uniformBits()) * 0x1.0p-53;
}

inline bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

} // namespace qismet

#endif // QISMET_COMMON_RNG_HPP
