/**
 * @file
 * Known answers for every Table-1 point: FNV-1a digests of what
 * CompiledCircuit::bind writes into its pool, of the amplitudes
 * Statevector::run leaves, and of EnergyEstimator::prepare's term
 * expectations and κ (Analytic mode), per application, over a seeded θ
 * grid.
 *
 * The goldens pin H2, App1 and QAOA trajectories; this pins the state
 * preparation of all six applications, including the RealAmplitudes
 * circuits of Apps 2, 3, 5 and 6, whose RY-only matrices take the
 * real-matrix Dense1 path. The grid mixes ordinary angles with ±0, ±π,
 * subnormals and 1e300, so every branch of the rotation matrices is
 * reached. The digests were captured before the kernels' single-call
 * unit walks and bind's factor recipes existed, so they pin both
 * against the code they replaced; they must hold with SIMD on or off
 * and at every thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/statevector.hpp"
#include "vqe/energy_estimator.hpp"

namespace qismet {
namespace {

/** FNV-1a over raw bytes. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
};

/** One θ entry: mostly ordinary angles, sometimes a special value. */
double
gridAngle(Rng &rng)
{
    static const double kSpecial[] = {
        0.0,    -0.0,    M_PI,   -M_PI,   1e-310,
        -1e-310, 5e-324, -5e-324, 1e300,  -1e300,
    };
    const std::uint64_t pick = rng.uniformInt(10);
    if (pick < 6)
        return rng.uniform(-4.0, 4.0);
    if (pick < 8)
        return rng.uniform(-1e6, 1e6);
    return kSpecial[rng.uniformInt(std::size(kSpecial))];
}

struct Table1Digests
{
    std::uint64_t pool;
    std::uint64_t state;
    std::uint64_t prepared;
};

Table1Digests
digestApplication(int index, int points)
{
    const Application app = application(index);
    const CompiledCircuit cc(app.ansatzCircuit);
    EstimatorConfig config;
    config.mode = EstimatorMode::Analytic;
    const EnergyEstimator estimator(app.hamiltonian, app.ansatzCircuit,
                                    app.machine.staticModel(), config);

    Rng rng(0x7AB1E1ull + static_cast<std::uint64_t>(index));
    Fnv1a pool;
    Fnv1a state;
    Fnv1a prepared;
    std::vector<Complex> bound;
    Statevector sv(app.ansatzCircuit.numQubits());
    std::vector<double> theta(static_cast<std::size_t>(cc.numParams()));
    for (int p = 0; p < points; ++p) {
        for (double &t : theta)
            t = gridAngle(rng);
        cc.bind(theta, bound);
        pool.bytes(bound.data(), bound.size() * sizeof(Complex));

        sv.reset();
        sv.run(cc, theta);
        state.bytes(sv.amplitudes().data(),
                    sv.amplitudes().size() * sizeof(Complex));

        const PreparedPoint point = estimator.prepare(theta);
        prepared.bytes(&point.sensitivity, sizeof(double));
        prepared.bytes(point.termExpectations.data(),
                       point.termExpectations.size() * sizeof(double));
    }
    return {pool.h, state.h, prepared.h};
}

TEST(Table1KnownAnswer, BindRunAndPrepareMatchPinnedDigests)
{
    // App index -> {pool, state, prepared} digests over 400 points.
    const Table1Digests want[6] = {
        {0x84f4dbe784d6c2a5ull, 0xb87ae7c2ac87073bull, 0xf30bfb20ec467519ull},
        {0x4d190874b8bbaf51ull, 0xf14305c4171b8d41ull, 0x1f41bb0eff1715f9ull},
        {0x3e4803def3572e1dull, 0x3ad5a406cd9bcefcull, 0x44a0b1037291f67full},
        {0xcd052f5b6292474dull, 0x9184131739d1ede1ull, 0x89d47feaf77c8512ull},
        {0x36281fcfed9d5c2dull, 0xf8bfb7aaa8b34051ull, 0x8f7c30ca69c98460ull},
        {0x701e37a3afe822d1ull, 0xa16c52e8c5eac1e2ull, 0xcb28418c6f5bfd61ull},
    };
    for (int index = 1; index <= 6; ++index) {
        SCOPED_TRACE("App" + std::to_string(index));
        const Table1Digests got = digestApplication(index, 400);
        const Table1Digests &w = want[index - 1];
        EXPECT_EQ(got.pool, w.pool);
        EXPECT_EQ(got.state, w.state);
        EXPECT_EQ(got.prepared, w.prepared);
    }
}

} // namespace
} // namespace qismet
