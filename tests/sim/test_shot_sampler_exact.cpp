/**
 * @file
 * Exactness battery for the shot loop: ShotSampler and
 * Statevector::sample must draw the same numbers, in the same order, as
 * the per-shot loop they replaced, and leave the caller's Rng in the
 * same state.
 *
 * The oracle below is that loop verbatim: one `std::lower_bound` per
 * shot over the CDF, then the per-qubit readout pass (`applyReadout`),
 * then `++counts[outcome]` on the `std::map`. After every call the
 * battery asserts equal Counts and an equal `Rng::saveState()`. It
 * lives in the `simkern` binary, so the ASan/UBSan sweeps also check
 * the branch-free search's indexing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/thread_pool.hpp"
#include "sim/cdf_search.hpp"
#include "sim/shot_sampler.hpp"
#include "sim/statevector.hpp"

namespace qismet {
namespace {

// ---------------------------------------------------------------------------
// The reference: the shot loop as it was before the rewrite.
// ---------------------------------------------------------------------------

std::uint64_t
referenceReadout(const std::vector<ReadoutError> &readout,
                 std::uint64_t bits, int num_qubits, Rng &rng)
{
    if (readout.empty())
        return bits;
    if (static_cast<int>(readout.size()) < num_qubits)
        throw std::invalid_argument(
            "ShotSampler: readout entries fewer than qubits");
    for (int q = 0; q < num_qubits; ++q) {
        const std::uint64_t bit = std::uint64_t{1} << q;
        const bool is_one = bits & bit;
        const double flip_p = is_one ? readout[q].p01 : readout[q].p10;
        if (flip_p > 0.0 && rng.bernoulli(flip_p))
            bits ^= bit;
    }
    return bits;
}

Counts
referenceSampleFromCdf(const std::vector<ReadoutError> &readout,
                       const std::vector<double> &cdf, int num_qubits,
                       std::size_t shots, Rng &rng)
{
    const double acc = cdf.back();
    if (acc <= 0.0)
        throw std::invalid_argument("ShotSampler: all-zero distribution");

    Counts counts;
    for (std::size_t s = 0; s < shots; ++s) {
        const double u = rng.uniform() * acc;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        auto outcome = static_cast<std::uint64_t>(it - cdf.begin());
        outcome = referenceReadout(readout, outcome, num_qubits, rng);
        ++counts[outcome];
    }
    return counts;
}

Counts
referenceSample(const std::vector<ReadoutError> &readout,
                const std::vector<double> &probs, int num_qubits,
                std::size_t shots, Rng &rng)
{
    std::vector<double> cdf(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += std::max(0.0, probs[i]);
        cdf[i] = acc;
    }
    return referenceSampleFromCdf(readout, cdf, num_qubits, shots, rng);
}

std::vector<std::uint64_t>
referenceStatevectorSample(const Statevector &state, Rng &rng,
                           std::size_t shots)
{
    const std::vector<double> &cdf = state.cumulativeProbabilities();
    const double acc = cdf.back();
    std::vector<std::uint64_t> out;
    out.reserve(shots);
    for (std::size_t s = 0; s < shots; ++s) {
        const double u = rng.uniform() * acc;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        out.push_back(static_cast<std::uint64_t>(it - cdf.begin()));
    }
    return out;
}

// ---------------------------------------------------------------------------
// The grid.
// ---------------------------------------------------------------------------

enum class ReadoutKind
{
    None,
    AllPositive,
    SomeZero,
    Certain,
};

constexpr ReadoutKind kReadoutKinds[] = {
    ReadoutKind::None, ReadoutKind::AllPositive, ReadoutKind::SomeZero,
    ReadoutKind::Certain};

std::vector<ReadoutError>
makeReadout(ReadoutKind kind, int n)
{
    std::vector<ReadoutError> out;
    for (int q = 0; q < n && kind != ReadoutKind::None; ++q) {
        const double dq = static_cast<double>(q);
        switch (kind) {
        case ReadoutKind::AllPositive:
            out.push_back({0.01 + 0.004 * dq, 0.03 + 0.005 * dq});
            break;
        case ReadoutKind::SomeZero:
            // p10 = 0, p01 = 0, and both zero, in turn.
            out.push_back(q % 3 == 0   ? ReadoutError{0.0, 0.04}
                          : q % 3 == 1 ? ReadoutError{0.02, 0.0}
                                       : ReadoutError{0.0, 0.0});
            break;
        case ReadoutKind::Certain:
            out.push_back(q % 2 == 0 ? ReadoutError{1.0, 1.0}
                                     : ReadoutError{1.0, 0.3});
            break;
        case ReadoutKind::None:
            break;
        }
    }
    return out;
}

enum class DistKind
{
    Uniform,
    Sparse,
    MassAtZero,
    MassAtTop,
};

constexpr DistKind kDistKinds[] = {DistKind::Uniform, DistKind::Sparse,
                                   DistKind::MassAtZero,
                                   DistKind::MassAtTop};

std::vector<double>
makeDistribution(DistKind kind, int n)
{
    const std::size_t dim = std::size_t{1} << n;
    std::vector<double> p(dim, 0.0);
    switch (kind) {
    case DistKind::Uniform:
        std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(dim));
        break;
    case DistKind::Sparse:
        // Unnormalized weights with flat CDF segments: exact zeros and
        // round-off negatives the sampler clamps to zero.
        for (std::size_t i = 0; i < dim; ++i)
            p[i] = i % 3 == 1 ? (i % 2 != 0 ? 0.0 : -1e-13)
                              : static_cast<double>(i % 7 + 1);
        break;
    case DistKind::MassAtZero:
        p[0] = 1.0;
        break;
    case DistKind::MassAtTop:
        p[dim - 1] = 1.0;
        break;
    }
    return p;
}

constexpr std::size_t kShotCounts[] = {1, 7, 4096};

void
expectSameState(const Rng &got, const Rng &want)
{
    const RngState g = got.saveState();
    const RngState w = want.saveState();
    EXPECT_EQ(g.engine, w.engine) << "engine state diverged";
    EXPECT_EQ(g.hasSpareNormal, w.hasSpareNormal);
    EXPECT_EQ(std::memcmp(&g.spareNormal, &w.spareNormal, sizeof(double)),
              0);
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    }
};

// The whole grid on one stream: every call checked against the
// reference, then the results pinned by value. The digest was captured
// from the per-shot std::lower_bound loop before the rewrite, so it
// also pins the reference against drift.
TEST(ShotSamplerExact, GridMatchesReferenceLoop)
{
    Rng rng(2026);
    Digest digest;
    for (int n = 1; n <= 8; ++n) {
        for (ReadoutKind rk : kReadoutKinds) {
            const std::vector<ReadoutError> readout = makeReadout(rk, n);
            const ShotSampler sampler(readout);
            for (DistKind dk : kDistKinds) {
                const std::vector<double> probs = makeDistribution(dk, n);
                for (std::size_t shots : kShotCounts) {
                    SCOPED_TRACE(
                        "n=" + std::to_string(n) + " readout=" +
                        std::to_string(static_cast<int>(rk)) + " dist=" +
                        std::to_string(static_cast<int>(dk)) +
                        " shots=" + std::to_string(shots));
                    Rng want_rng = rng;
                    const Counts want =
                        referenceSample(readout, probs, n, shots, want_rng);
                    const Counts got = sampler.sample(probs, n, shots, rng);
                    EXPECT_EQ(got, want);
                    expectSameState(rng, want_rng);
                    EXPECT_EQ(totalShots(got), shots);
                    for (const auto &[bits, count] : got) {
                        digest.add(bits);
                        digest.add(count);
                    }
                    for (std::uint64_t w : rng.saveState().engine)
                        digest.add(w);
                }
            }
        }
    }
    EXPECT_EQ(digest.h, 0x5f5d4f46900c18e7ull);
}

TEST(ShotSamplerExact, ReadoutWiderThanRegisterIgnoresExtraEntries)
{
    // Entries past the register width are validated but never drawn.
    const int n = 3;
    std::vector<ReadoutError> readout = makeReadout(ReadoutKind::AllPositive,
                                                    n + 2);
    const ShotSampler sampler(readout);
    Rng rng(17);
    for (DistKind dk : kDistKinds) {
        const std::vector<double> probs = makeDistribution(dk, n);
        Rng want_rng = rng;
        const Counts want = referenceSample(readout, probs, n, 4096, want_rng);
        EXPECT_EQ(sampler.sample(probs, n, 4096, rng), want);
        expectSameState(rng, want_rng);
    }
}

TEST(ShotSamplerExact, ZeroShotsLeaveTheStreamAlone)
{
    const ShotSampler sampler(makeReadout(ReadoutKind::AllPositive, 4));
    Rng rng(3);
    const Rng before = rng;
    EXPECT_TRUE(
        sampler.sample(makeDistribution(DistKind::Uniform, 4), 4, 0, rng)
            .empty());
    expectSameState(rng, before);
}

// ---------------------------------------------------------------------------
// The Statevector paths.
// ---------------------------------------------------------------------------

/** A few states per width: entangled, basis states, and zero runs. */
std::vector<Statevector>
makeStates(int n, Rng &rng)
{
    std::vector<Statevector> states;

    Circuit mixed(n);
    for (int q = 0; q < n; ++q)
        mixed.ry(q, rng.uniform(0.0, 3.14159)).rz(q, rng.uniform(-1.0, 1.0));
    for (int q = 0; q + 1 < n; ++q)
        mixed.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        mixed.rx(q, rng.uniform(0.0, 3.14159));
    states.emplace_back(n);
    states.back().run(mixed);

    states.emplace_back(n); // |0...0>

    Circuit top(n);
    for (int q = 0; q < n; ++q)
        top.x(q);
    states.emplace_back(n);
    states.back().run(top); // |1...1>

    // Superposition over the even-indexed qubits only: most amplitudes
    // are exactly zero, so the CDF has long flat runs.
    Circuit sparse(n);
    for (int q = 0; q < n; q += 2)
        sparse.h(q);
    states.emplace_back(n);
    states.back().run(sparse);
    return states;
}

TEST(ShotSamplerExact, StatevectorOverloadMatchesReference)
{
    Rng rng(404);
    for (int n = 1; n <= 8; ++n) {
        const std::vector<Statevector> states = makeStates(n, rng);
        for (ReadoutKind rk : kReadoutKinds) {
            const std::vector<ReadoutError> readout = makeReadout(rk, n);
            const ShotSampler sampler(readout);
            for (std::size_t si = 0; si < states.size(); ++si) {
                for (std::size_t shots : kShotCounts) {
                    SCOPED_TRACE("n=" + std::to_string(n) + " state=" +
                                 std::to_string(si) + " shots=" +
                                 std::to_string(shots));
                    const Statevector &state = states[si];
                    Rng want_rng = rng;
                    const Counts want = referenceSampleFromCdf(
                        readout, state.cumulativeProbabilities(), n, shots,
                        want_rng);
                    EXPECT_EQ(sampler.sample(state, shots, rng), want);
                    expectSameState(rng, want_rng);
                }
            }
        }
    }
}

TEST(ShotSamplerExact, StatevectorSampleMatchesReference)
{
    Rng rng(505);
    for (int n = 1; n <= 8; ++n) {
        const std::vector<Statevector> states = makeStates(n, rng);
        for (std::size_t si = 0; si < states.size(); ++si) {
            for (std::size_t shots : kShotCounts) {
                SCOPED_TRACE("n=" + std::to_string(n) + " state=" +
                             std::to_string(si) + " shots=" +
                             std::to_string(shots));
                Rng want_rng = rng;
                const std::vector<std::uint64_t> want =
                    referenceStatevectorSample(states[si], want_rng, shots);
                EXPECT_EQ(states[si].sample(rng, shots), want);
                expectSameState(rng, want_rng);
            }
        }
    }
}

class GlobalThreadsGuard
{
  public:
    GlobalThreadsGuard() : saved_(ParallelExecutor::global().threads()) {}
    ~GlobalThreadsGuard() { ParallelExecutor::setGlobalThreads(saved_); }

  private:
    std::size_t saved_;
};

TEST(ShotSamplerExact, SampleBatchMatchesReferenceAtOneAndFourThreads)
{
    GlobalThreadsGuard guard;
    const int n = 6;
    std::vector<std::vector<double>> distributions;
    for (DistKind dk : kDistKinds)
        distributions.push_back(makeDistribution(dk, n));
    for (ReadoutKind rk : kReadoutKinds) {
        const std::vector<ReadoutError> readout = makeReadout(rk, n);
        const ShotSampler sampler(readout);

        // Reference: split serially, then the old loop per distribution.
        Rng want_rng(606);
        std::vector<Counts> want;
        std::vector<Rng> subs;
        for (std::size_t i = 0; i < distributions.size(); ++i)
            subs.push_back(want_rng.split());
        for (std::size_t i = 0; i < distributions.size(); ++i)
            want.push_back(referenceSample(readout, distributions[i], n, 4096,
                                           subs[i]));

        for (std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE("readout=" + std::to_string(static_cast<int>(rk)) +
                         " threads=" + std::to_string(threads));
            ParallelExecutor::setGlobalThreads(threads);
            Rng rng(606);
            EXPECT_EQ(sampler.sampleBatch(distributions, n, 4096, rng), want);
            expectSameState(rng, want_rng);
        }
    }
}

// ---------------------------------------------------------------------------
// The search on its own, against std::lower_bound.
// ---------------------------------------------------------------------------

TEST(ShotSamplerExact, CdfSearchMatchesLowerBound)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t size = 1; size <= 33; ++size) {
        // Non-decreasing with flat runs and repeated values.
        std::vector<double> cdf(size);
        double acc = 0.0;
        for (std::size_t i = 0; i < size; ++i) {
            acc += (i % 4 == 1 || i % 5 == 3) ? 0.0 : 0.125;
            cdf[i] = acc;
        }
        std::vector<double> probes = {-1.0, 0.0, nan, cdf.back(),
                                      cdf.back() + 1.0};
        for (double v : cdf) {
            probes.push_back(v);
            probes.push_back(std::nextafter(v, -1.0));
            probes.push_back(std::nextafter(v, 2.0 * v + 1.0));
        }
        for (double u : probes) {
            const auto want = static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            EXPECT_EQ(detail::cdfLowerBound(cdf, u), want)
                << "size=" << size << " u=" << u;
        }
    }
}

} // namespace
} // namespace qismet
