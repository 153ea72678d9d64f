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
 * battery asserts equal Counts and an equal `Rng::saveState()`, on a
 * pinned grid, on the Table-1 apps' own group distributions, and on
 * geometric tails and extreme totals, and at the edges of the AVX2
 * loop's draw-ahead block (shot counts around its depth, schedules that
 * skip qubits, rows wider than two vectors) with SIMD on and off. The
 * guided search and the integer readout trial are also checked on their
 * own: each integer CDF threshold at its boundary, the search against
 * `std::lower_bound` at every guide-bucket edge and wherever a draw
 * lands exactly on a CDF entry, the trial against `uniform() < p` at
 * its threshold. It lives in the `simkern` binary, so the
 * ASan/UBSan sweeps also check the search's indexing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/applications.hpp"
#include "circuit/circuit.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "sim/cdf_search.hpp"
#include "sim/shot_sampler.hpp"
#include "sim/statevector.hpp"
#include "vqe/energy_estimator.hpp"

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
    Gapped,
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
        case ReadoutKind::Gapped:
            // Every shot draws for the same qubits, but not for a
            // prefix of them: both probabilities 0 on qubits 1, 4, 7...
            out.push_back(q % 3 == 1
                              ? ReadoutError{0.0, 0.0}
                              : ReadoutError{0.02 + 0.003 * dq, 0.04});
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
// The workload's own inputs and the shapes the grid does not reach.
// ---------------------------------------------------------------------------

constexpr std::size_t kWideShotCounts[] = {1, 7, 300, 4096};

/**
 * Run `probs` through the sampler and the reference at every shot count
 * in kWideShotCounts and for every readout shape, plus `extra` readout
 * entries (the workload's own), all on one stream.
 */
void
expectMatchesReference(const std::vector<double> &probs, int n, Rng &rng,
                       const std::vector<ReadoutError> &extra = {})
{
    std::vector<std::vector<ReadoutError>> readouts;
    for (ReadoutKind rk : kReadoutKinds)
        readouts.push_back(makeReadout(rk, n));
    if (!extra.empty())
        readouts.push_back(extra);
    for (std::size_t ri = 0; ri < readouts.size(); ++ri) {
        const ShotSampler sampler(readouts[ri]);
        for (std::size_t shots : kWideShotCounts) {
            SCOPED_TRACE("readout=" + std::to_string(ri) +
                         " shots=" + std::to_string(shots));
            Rng want_rng = rng;
            const Counts want =
                referenceSample(readouts[ri], probs, n, shots, want_rng);
            EXPECT_EQ(sampler.sample(probs, n, shots, rng), want);
            expectSameState(rng, want_rng);
        }
    }
}

/**
 * Each Table-1 app's measurement-group distributions at a few random
 * points, depolarized by the static survival factor exactly as
 * EnergyEstimator::finishSampling does: what sampling-table1 samples.
 */
std::vector<std::vector<double>>
table1GroupDistributions(const Application &app, Rng &rng)
{
    EstimatorConfig config;
    config.mode = EstimatorMode::Sampling;
    const EnergyEstimator estimator(app.hamiltonian, app.ansatzCircuit,
                                    app.machine.staticModel(), config);
    const int n = app.ansatzCircuit.numQubits();
    const double uniform = 1.0 / static_cast<double>(std::size_t{1} << n);
    const double f = estimator.staticSurvival();
    std::vector<std::vector<double>> out;
    std::vector<double> theta(
        static_cast<std::size_t>(app.ansatzCircuit.numParams()));
    for (int point = 0; point < 2; ++point) {
        for (double &t : theta)
            t = rng.uniform(-3.14159, 3.14159);
        for (std::vector<double> probs :
             estimator.prepare(theta).groupProbabilities) {
            for (double &p : probs)
                p = f * p + (1.0 - f) * uniform;
            out.push_back(std::move(probs));
        }
    }
    return out;
}

TEST(ShotSamplerExact, Table1GroupDistributionsMatchReference)
{
    Rng rng(2027);
    for (int index = 1; index <= 6; ++index) {
        SCOPED_TRACE("App" + std::to_string(index));
        const Application app = application(index);
        const int n = app.ansatzCircuit.numQubits();
        const std::vector<ReadoutError> readout =
            app.machine.staticModel().readoutErrors(n);
        for (const std::vector<double> &probs :
             table1GroupDistributions(app, rng))
            expectMatchesReference(probs, n, rng, readout);
    }
}

/**
 * Weights 2^(−e_i) with e_i rising linearly to 1070, so the tail runs
 * through the subnormals; `rising` puts the tail first instead. Either
 * way most CDF entries share one guide bucket.
 */
std::vector<double>
geometricTail(int n, bool rising)
{
    const std::size_t dim = std::size_t{1} << n;
    std::vector<double> p(dim);
    for (std::size_t i = 0; i < dim; ++i) {
        const std::size_t step = rising ? dim - 1 - i : i;
        p[i] = std::ldexp(1.0, -static_cast<int>(step * 1070 / (dim - 1)));
    }
    return p;
}

TEST(ShotSamplerExact, GeometricTailsToSubnormalsMatchReference)
{
    Rng rng(2028);
    for (int n = 2; n <= 8; ++n) {
        for (bool rising : {false, true}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         (rising ? " rising" : " falling"));
            const std::vector<double> p = geometricTail(n, rising);
            ASSERT_LT(*std::min_element(p.begin(), p.end()),
                      std::numeric_limits<double>::min());
            expectMatchesReference(p, n, rng);
        }
    }
}

TEST(ShotSamplerExact, TinyAndHugeTotalsMatchReference)
{
    Rng rng(2029);
    const Application app = application(1);
    const int n = app.ansatzCircuit.numQubits();
    const std::vector<std::vector<double>> shapes = {
        makeDistribution(DistKind::Uniform, n),
        makeDistribution(DistKind::Sparse, n),
        table1GroupDistributions(app, rng).front()};
    for (double total : {1e-300, 1e300}) {
        for (std::size_t si = 0; si < shapes.size(); ++si) {
            SCOPED_TRACE(std::string(total < 1.0 ? "tiny" : "huge") +
                         " total, shape=" + std::to_string(si));
            double sum = 0.0;
            for (double w : shapes[si])
                sum += std::max(0.0, w);
            std::vector<double> p = shapes[si];
            for (double &w : p)
                w = std::max(0.0, w) / sum * total;
            expectMatchesReference(p, n, rng);
        }
    }
}

// ---------------------------------------------------------------------------
// The draw-ahead loop's edges: block depths, gapped schedules, wide rows.
// ---------------------------------------------------------------------------

constexpr ReadoutKind kAllReadoutKinds[] = {
    ReadoutKind::None, ReadoutKind::AllPositive, ReadoutKind::SomeZero,
    ReadoutKind::Certain, ReadoutKind::Gapped};

/** Sets the SIMD switch for a scope, then puts the old value back. */
class SimdGuard
{
  public:
    explicit SimdGuard(bool on) : saved_(simdEnabled())
    {
        setSimdEnabled(on);
    }
    ~SimdGuard() { setSimdEnabled(saved_); }

  private:
    bool saved_;
};

/**
 * Every readout shape and distribution kind at width n and each shot
 * count, against the reference, on one stream: with the AVX2 loop (where
 * the host has it) and with the per-shot loop.
 */
void
expectShapesMatchReference(int n, const std::vector<std::size_t> &shot_counts,
                           Rng &rng)
{
    for (bool simd : {true, false}) {
        const SimdGuard guard(simd);
        for (ReadoutKind rk : kAllReadoutKinds) {
            const std::vector<ReadoutError> readout = makeReadout(rk, n);
            const ShotSampler sampler(readout);
            for (DistKind dk : kDistKinds) {
                const std::vector<double> probs = makeDistribution(dk, n);
                for (std::size_t shots : shot_counts) {
                    SCOPED_TRACE(
                        "simd=" + std::to_string(simd) +
                        " n=" + std::to_string(n) + " readout=" +
                        std::to_string(static_cast<int>(rk)) + " dist=" +
                        std::to_string(static_cast<int>(dk)) +
                        " shots=" + std::to_string(shots));
                    Rng want_rng = rng;
                    const Counts want =
                        referenceSample(readout, probs, n, shots, want_rng);
                    EXPECT_EQ(sampler.sample(probs, n, shots, rng), want);
                    expectSameState(rng, want_rng);
                }
            }
        }
    }
}

TEST(ShotSamplerExact, DrawAheadBlockEdgesMatchReference)
{
    // One shot short of a block, a block, one past it and one past two:
    // the last block holds only the shots that remain.
    const std::size_t depth = ShotSampler::kDrawAheadShots;
    const std::vector<std::size_t> shot_counts = {depth - 1, depth,
                                                  depth + 1, 2 * depth + 1};
    Rng rng(2030);
    for (int n = 1; n <= 12; ++n)
        expectShapesMatchReference(n, shot_counts, rng);
}

TEST(ShotSamplerExact, RowsWiderThanTwoVectorsMatchReference)
{
    // At 9 to 12 qubits a shot's row (the trials, then the search draw)
    // spans three or four AVX2 vectors.
    Rng rng(2031);
    for (int n = 9; n <= 12; ++n)
        expectShapesMatchReference(n, {7, 300, 4096}, rng);
}

TEST(ShotSamplerExact, SubnormalTotalsMatchReference)
{
    Rng rng(2032);
    for (double unit : {0x1.0p-1060, 0x1.0p-1074}) {
        SCOPED_TRACE("unit 2^" + std::to_string(std::ilogb(unit)));
        std::vector<double> p = makeDistribution(DistKind::Sparse, 6);
        for (double &w : p)
            w = std::max(0.0, w) * unit;
        expectMatchesReference(p, 6, rng);
    }
}

// ---------------------------------------------------------------------------
// The search and the trial on their own.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDrawLimit = std::uint64_t{1} << 53;

/** std::lower_bound at the draw whose integer is k: the oracle. */
std::size_t
lowerBoundAt(const std::vector<double> &cdf, std::uint64_t k)
{
    const double u = static_cast<double>(k) * 0x1.0p-53 * cdf.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

std::vector<double>
prefixSums(const std::vector<double> &p)
{
    std::vector<double> cdf(p.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        acc += std::max(0.0, p[i]);
        cdf[i] = acc;
    }
    return cdf;
}

/**
 * Draws whose u lands exactly on a CDF entry: for each entry c, the k
 * nearest c/total·2^53 and its neighbours, kept where u(k) == c.
 */
std::vector<std::uint64_t>
exactEntryDraws(const std::vector<double> &cdf)
{
    std::vector<std::uint64_t> out;
    const double total = cdf.back();
    for (double c : cdf) {
        const double guess = std::floor(c / total * 0x1.0p53);
        const auto k0 = static_cast<std::uint64_t>(
            std::min(guess, static_cast<double>(kDrawLimit - 1)));
        for (std::uint64_t k = k0 > 2 ? k0 - 2 : 0;
             k <= k0 + 2 && k < kDrawLimit; ++k)
            if (static_cast<double>(k) * 0x1.0p-53 * total == c)
                out.push_back(k);
    }
    return out;
}

/** The CDFs the search is checked on, each with a name. */
std::vector<std::pair<std::string, std::vector<double>>>
searchCases()
{
    std::vector<std::pair<std::string, std::vector<double>>> cases;
    for (int n : {1, 3, 6, 10}) {
        const std::string w = " n=" + std::to_string(n);
        for (DistKind dk : kDistKinds)
            cases.emplace_back(
                "dist=" + std::to_string(static_cast<int>(dk)) + w,
                prefixSums(makeDistribution(dk, n)));
        cases.emplace_back("falling tail" + w,
                           prefixSums(geometricTail(n, false)));
        cases.emplace_back("rising tail" + w,
                           prefixSums(geometricTail(n, true)));
    }
    // Multiples of 2^-7 summing to exactly 1, zeros included: every
    // entry but the last is u(k) for the integer k = entry·2^53.
    constexpr double kUnits[] = {0.0, 2.0, 3.0, 3.0};
    std::vector<double> dyadic(64);
    for (std::size_t i = 0; i < dyadic.size(); ++i)
        dyadic[i] = kUnits[i % 4] * 0x1.0p-7;
    cases.emplace_back("dyadic", prefixSums(dyadic));
    // Many entries packed into one bucket: 2^15 outcomes (the 2^16
    // bucket cap), all but a few of them a hair of the mass.
    std::vector<double> packed(std::size_t{1} << 15, 1e-12);
    packed[7] = 1.0;
    packed[20000] = 0.5;
    cases.emplace_back("packed", prefixSums(packed));
    for (double total : {1e-300, 1e300}) {
        std::vector<double> scaled = makeDistribution(DistKind::Sparse, 6);
        for (double &w : scaled)
            w *= total;
        cases.emplace_back(total < 1.0 ? "tiny total" : "huge total",
                           prefixSums(scaled));
    }
    // Subnormal totals: u(k) rounds to a multiple of 2^-1074, so it is
    // flat over runs of consecutive draws, about 2^45 long at the
    // smaller unit.
    for (double unit : {0x1.0p-1060, 0x1.0p-1074}) {
        std::vector<double> scaled = makeDistribution(DistKind::Sparse, 6);
        for (double &w : scaled)
            w = std::max(0.0, w) * unit;
        cases.emplace_back("subnormal total, unit 2^" +
                               std::to_string(std::ilogb(unit)),
                           prefixSums(scaled));
    }
    return cases;
}

TEST(ShotSamplerExact, CdfThresholdsAreTheLeastPassingDraws)
{
    // K_i is the least draw k with cdf[i] < u(k): the predicate fails at
    // K_i − 1 and holds at K_i, and u(k) never decreases in k, so that
    // pins K_i. 2^53 stands for "no draw passes".
    for (const auto &[name, cdf] : searchCases()) {
        SCOPED_TRACE(name);
        const detail::CdfSearch search(cdf, "test");
        const double total = cdf.back();
        const auto passes = [total](double c, std::uint64_t k) {
            return c < static_cast<double>(k) * 0x1.0p-53 * total;
        };
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            const std::uint64_t t = search.threshold(i);
            ASSERT_LE(t, kDrawLimit) << "i=" << i;
            if (t < kDrawLimit) {
                ASSERT_TRUE(passes(cdf[i], t)) << "i=" << i;
            }
            if (t > 0) {
                ASSERT_FALSE(passes(cdf[i], t - 1)) << "i=" << i;
            }
        }
        EXPECT_EQ(search.threshold(cdf.size() - 1), kDrawLimit);
    }
}

TEST(ShotSamplerExact, GuidedSearchMatchesLowerBoundAtBucketEdges)
{
    for (const auto &[name, cdf] : searchCases()) {
        SCOPED_TRACE(name);
        const detail::CdfSearch search(cdf, "test");
        const int bits = search.bucketBits();
        const int n = static_cast<int>(std::bit_width(cdf.size() - 1));
        EXPECT_EQ(bits, std::min(n + 2, 16));
        const int shift = 53 - bits;
        for (std::uint64_t j = 0; j < (std::uint64_t{1} << bits); ++j) {
            const std::uint64_t edge = j << shift;
            for (std::uint64_t k :
                 {edge == 0 ? edge : edge - 1, edge, edge + 1}) {
                ASSERT_EQ(search.find(k), lowerBoundAt(cdf, k))
                    << "bucket " << j << " k=" << k;
            }
        }
        for (std::uint64_t k : {std::uint64_t{0}, kDrawLimit - 1})
            EXPECT_EQ(search.find(k), lowerBoundAt(cdf, k)) << "k=" << k;
    }
}

TEST(ShotSamplerExact, GuidedSearchMatchesLowerBoundWhereDrawsHitEntries)
{
    std::size_t hits = 0;
    for (const auto &[name, cdf] : searchCases()) {
        SCOPED_TRACE(name);
        const detail::CdfSearch search(cdf, "test");
        for (std::uint64_t k : exactEntryDraws(cdf)) {
            ++hits;
            for (std::uint64_t probe : {k == 0 ? k : k - 1, k, k + 1}) {
                if (probe < kDrawLimit) {
                    ASSERT_EQ(search.find(probe), lowerBoundAt(cdf, probe))
                        << "k=" << probe;
                }
            }
        }
    }
    // The dyadic case alone puts 63 of its entries on a draw.
    EXPECT_GE(hits, 63u);
}

TEST(ShotSamplerExact, CdfSearchMatchesLowerBound)
{
    for (std::size_t size = 1; size <= 33; ++size) {
        // Non-decreasing with flat runs and repeated values.
        std::vector<double> cdf(size);
        double acc = 0.0;
        for (std::size_t i = 0; i < size; ++i) {
            acc += (i % 4 == 1 || i % 5 == 3) ? 0.0 : 0.125;
            cdf[i] = acc;
        }
        const detail::CdfSearch search(cdf, "test");
        std::vector<std::uint64_t> probes = {0, 1, kDrawLimit - 1};
        for (std::uint64_t k : exactEntryDraws(cdf)) {
            probes.push_back(k - (k > 0 ? 1 : 0));
            probes.push_back(k);
            probes.push_back(std::min(k + 1, kDrawLimit - 1));
        }
        for (std::uint64_t k : probes)
            EXPECT_EQ(search.find(k), lowerBoundAt(cdf, k))
                << "size=" << size << " k=" << k;
    }
}

TEST(ShotSamplerExact, CdfSearchRefusesTotalsItCannotSample)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const std::vector<double> &cdf :
         {std::vector<double>{}, std::vector<double>{0.0, 0.0},
          std::vector<double>{0.5, inf}, std::vector<double>{0.5, nan}}) {
        EXPECT_THROW(detail::CdfSearch(cdf, "test"), std::invalid_argument);
    }
}

TEST(ShotSamplerExact, CdfSearchRefusalPrintsTheTotalExactly)
{
    try {
        detail::CdfSearch(std::vector<double>{-1e-9}, "test");
        ADD_FAILURE() << "a negative total was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "test: distribution total -1e-09 is not finite"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShotSamplerExact, TrialThresholdIsTheDoubleComparison)
{
    for (double p : {0.0, 5e-324, 1e-300, 0.03, 0.5, 1.0 - 0x1.0p-53, 1.0}) {
        SCOPED_TRACE("p=" + std::to_string(p));
        const std::uint64_t t = detail::trialThreshold(p);
        EXPECT_EQ(static_cast<double>(t), std::ceil(p * 0x1.0p53));
        EXPECT_EQ(t == 0, p == 0.0);
        std::vector<std::uint64_t> ks = {t};
        if (t > 0)
            ks.push_back(t - 1);
        for (std::uint64_t k : ks) {
            const bool by_double = static_cast<double>(k) * 0x1.0p-53 < p;
            EXPECT_EQ(by_double, k < t) << "k=" << k;
        }
        // The threshold is the boundary itself.
        if (t > 0) {
            EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, p);
        }
        EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p);
    }
}

} // namespace
} // namespace qismet
