/**
 * @file
 * google-benchmark kernel timings for the library's hot paths: the
 * statevector simulator, the density-matrix channel application, Pauli
 * expectations, the noisy energy estimator, and a full QISMET VQE job
 * loop. These set expectations for how long the figure benches take.
 */

#include <benchmark/benchmark.h>

#include <cmath>

#include "apps/applications.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "hamiltonian/tfim.hpp"
#include "pauli/expectation.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "support.hpp"

using namespace qismet;

namespace {

// ---------------------------------------------------------------------
// Per-kernel amplitude-throughput benches (DESIGN.md "SIMD +
// intra-state parallelism"). Args are (qubits, simd) — the simd:0
// variants pin the scalar path via setSimdEnabled(false), so one report
// carries the A/B pair the CI speedup gate compares. Matrices are
// unitary so repeated application keeps the amplitudes bounded (no
// subnormal/NaN slow paths polluting the timing).
// ---------------------------------------------------------------------

/** Restore the ambient SIMD switch when a bench scope exits. */
class SimdScope
{
  public:
    explicit SimdScope(bool on) : saved_(simdEnabled())
    {
        setSimdEnabled(on);
    }
    ~SimdScope() { setSimdEnabled(saved_); }

  private:
    bool saved_;
};

std::vector<Complex>
benchState(int n)
{
    Rng rng(91);
    std::vector<Complex> amps(std::size_t{1} << n);
    double norm2 = 0.0;
    for (auto &a : amps) {
        a = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        norm2 += std::norm(a);
    }
    const double inv = 1.0 / std::sqrt(norm2);
    for (auto &a : amps)
        a *= inv;
    return amps;
}

void
setAmpCounters(benchmark::State &state, double amps_per_iter)
{
    state.counters["amps_per_sec"] = benchmark::Counter(
        amps_per_iter, benchmark::Counter::kIsIterationInvariantRate);
    state.SetLabel(simdBackendName());
}

void
BM_KernelDense1(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    std::vector<Complex> amps = benchState(n);
    // RX(0.3): complex entries, unitary — takes the general path.
    const double c = std::cos(0.15), s = std::sin(0.15);
    const Complex m[4] = {Complex(c, 0.0), Complex(0.0, -s),
                          Complex(0.0, -s), Complex(c, 0.0)};
    for (auto _ : state) {
        kern::applyDense1(amps, n / 2, m);
        benchmark::DoNotOptimize(amps.data());
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
}
BENCHMARK(BM_KernelDense1)
    ->ArgsProduct({{8, 10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_KernelDense1Real(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    std::vector<Complex> amps = benchState(n);
    // RY(0.3): real entries, unitary — takes the real fast path.
    const double c = std::cos(0.15), s = std::sin(0.15);
    const Complex m[4] = {Complex(c, 0.0), Complex(-s, 0.0),
                          Complex(s, 0.0), Complex(c, 0.0)};
    for (auto _ : state) {
        kern::applyDense1(amps, n / 2, m);
        benchmark::DoNotOptimize(amps.data());
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
}
BENCHMARK(BM_KernelDense1Real)
    ->ArgsProduct({{10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_KernelDense2(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    std::vector<Complex> amps = benchState(n);
    // RX(0.2) (x) RY(0.4): a dense unitary 4x4.
    const double cx = std::cos(0.1), sx = std::sin(0.1);
    const double cy = std::cos(0.2), sy = std::sin(0.2);
    const Complex rx[4] = {Complex(cx, 0.0), Complex(0.0, -sx),
                           Complex(0.0, -sx), Complex(cx, 0.0)};
    const Complex ry[4] = {Complex(cy, 0.0), Complex(-sy, 0.0),
                           Complex(sy, 0.0), Complex(cy, 0.0)};
    Complex m[16];
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l)
                    m[(i * 2 + k) * 4 + (j * 2 + l)] =
                        rx[i * 2 + j] * ry[k * 2 + l];
    for (auto _ : state) {
        kern::applyDense2(amps, n - 1, n / 2, m);
        benchmark::DoNotOptimize(amps.data());
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
}
BENCHMARK(BM_KernelDense2)
    ->ArgsProduct({{8, 10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_KernelDiag(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    std::vector<Complex> amps = benchState(n);
    // Merged CZ/S/T-style table over the top 3 qubits: unit-modulus
    // phases, one exact-one entry to exercise the skip branch. A
    // high-qubit mask gives the kernel contiguous scale runs (the
    // vectorizable shape); a low-qubit mask would degenerate to
    // stride-1 single-amplitude multiplies.
    const std::uint64_t mask = std::uint64_t{0b111} << (n - 3);
    Complex table[8];
    table[0] = Complex(1.0, 0.0);
    for (int i = 1; i < 8; ++i)
        table[i] = Complex(std::cos(0.3 * i), std::sin(0.3 * i));
    for (auto _ : state) {
        kern::applyDiag(amps, mask, table);
        benchmark::DoNotOptimize(amps.data());
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
}
BENCHMARK(BM_KernelDiag)
    ->ArgsProduct({{8, 10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_KernelPermSwap(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    std::vector<Complex> amps = benchState(n);
    for (auto _ : state) {
        kern::applyPermSwap(amps, 0, n - 1);
        benchmark::DoNotOptimize(amps.data());
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
}
BENCHMARK(BM_KernelPermSwap)
    ->ArgsProduct({{10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_KernelNorm2(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    std::vector<Complex> amps = benchState(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kern::norm2(amps));
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
}
BENCHMARK(BM_KernelNorm2)
    ->ArgsProduct({{10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_KernelDense1Threads(benchmark::State &state)
{
    // Intra-state partition scaling probe: same kernel, same bits, the
    // state split over 1..8 workers (above the parallel threshold).
    const int n = static_cast<int>(state.range(0));
    const std::size_t previous = ParallelExecutor::global().threads();
    ParallelExecutor::setGlobalThreads(
        static_cast<std::size_t>(state.range(1)));
    std::vector<Complex> amps = benchState(n);
    const double c = std::cos(0.15), s = std::sin(0.15);
    const Complex m[4] = {Complex(c, 0.0), Complex(0.0, -s),
                          Complex(0.0, -s), Complex(c, 0.0)};
    for (auto _ : state) {
        kern::applyDense1(amps, n / 2, m);
        benchmark::DoNotOptimize(amps.data());
    }
    setAmpCounters(state, static_cast<double>(amps.size()));
    ParallelExecutor::setGlobalThreads(previous);
}
BENCHMARK(BM_KernelDense1Threads)
    ->ArgsProduct({{12, 14}, {1, 2, 4, 8}})
    ->ArgNames({"qubits", "threads"});

void
BM_StatevectorAnsatzRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const auto ansatz = makeAnsatz("RA", n, 4);
    const Circuit circuit = ansatz->build();
    Rng rng(3);
    const auto theta = ansatz->randomInitialPoint(rng);

    for (auto _ : state) {
        Statevector st(n);
        st.run(circuit, theta);
        benchmark::DoNotOptimize(st.amplitudes().data());
    }
}
BENCHMARK(BM_StatevectorAnsatzRun)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void
BM_PauliExpectation(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const PauliSum h = tfimHamiltonian({.numQubits = n});
    const auto ansatz = makeAnsatz("RA", n, 4);
    Rng rng(5);
    Statevector st(n);
    st.run(ansatz->build(), ansatz->randomInitialPoint(rng));

    for (auto _ : state) {
        benchmark::DoNotOptimize(expectation(st, h));
    }
}
BENCHMARK(BM_PauliExpectation)->Arg(4)->Arg(6)->Arg(8);

void
BM_DensityMatrixNoisyGate(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    DensityMatrix rho(n);
    const KrausChannel dep = KrausChannel::depolarizing2q(0.01);
    for (auto _ : state) {
        rho.applyChannel2q(0, 1, dep);
        benchmark::DoNotOptimize(rho.trace());
    }
}
BENCHMARK(BM_DensityMatrixNoisyGate)->Arg(4)->Arg(6)->Arg(8);

void
BM_DensityMatrixScratchReuse(benchmark::State &state)
{
    // Guards the no-allocation contract of the channel/gate hot loop:
    // after a warm-up pass sizes the member scratch, steady-state
    // iterations must not reallocate (scratchAllocCount must not move).
    const int n = static_cast<int>(state.range(0));
    DensityMatrix rho(n);
    const KrausChannel dep2 = KrausChannel::depolarizing2q(0.01);
    const KrausChannel amp = KrausChannel::amplitudeDamping(0.02);
    Gate h;
    h.type = GateType::H;
    h.qubits = {0};

    rho.applyChannel2q(0, 1, dep2);
    rho.applyChannel1q(0, amp);
    rho.applyGate(h);
    const std::size_t warm = rho.scratchAllocCount();

    for (auto _ : state) {
        rho.applyChannel2q(0, 1, dep2);
        rho.applyChannel1q(0, amp);
        rho.applyGate(h);
        benchmark::DoNotOptimize(rho.trace());
    }
    if (rho.scratchAllocCount() != warm)
        state.SkipWithError("density-matrix scratch reallocated after warm-up");
    state.counters["scratch_allocs"] =
        static_cast<double>(rho.scratchAllocCount());
}
BENCHMARK(BM_DensityMatrixScratchReuse)->Arg(4)->Arg(6);

void
BM_EnergyEstimate(benchmark::State &state)
{
    const Application app = application(2);
    EstimatorConfig cfg;
    cfg.mode = state.range(0) ? EstimatorMode::Sampling
                              : EstimatorMode::Analytic;
    cfg.shots = 4096;
    EnergyEstimator est(app.hamiltonian, app.ansatzCircuit,
                        app.machine.staticModel(), cfg);
    Rng rng(7);
    std::vector<double> theta(
        static_cast<std::size_t>(app.ansatzCircuit.numParams()), 0.3);

    for (auto _ : state) {
        benchmark::DoNotOptimize(est.estimate(theta, 0.1, rng));
    }
}
BENCHMARK(BM_EnergyEstimate)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"sampling"});

void
BM_QismetVqeRun(benchmark::State &state)
{
    const Application app = application(2);
    const QismetVqe runner = app.makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = static_cast<std::size_t>(state.range(0));
    cfg.scheme = Scheme::Qismet;

    for (auto _ : state) {
        benchmark::DoNotOptimize(runner.run(cfg).run.finalEstimate);
    }
}
BENCHMARK(BM_QismetVqeRun)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void
BM_QismetVqeEnsembleThreads(benchmark::State &state)
{
    // Parallel-engine scaling probe: the bench layer's trial-ensemble
    // fan-out at 1..N workers. Results are bit-identical across thread
    // counts (the determinism contract); only wall clock changes.
    const Application app = application(2);
    const QismetVqe runner = app.makeRunner();
    QismetVqeConfig cfg;
    cfg.totalJobs = 200;
    cfg.scheme = Scheme::Qismet;
    const std::vector<std::uint64_t> seeds = {7, 17, 27, 37};

    const std::size_t previous = ParallelExecutor::global().threads();
    ParallelExecutor::setGlobalThreads(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runner.runEnsemble(cfg, seeds).front().run.finalEstimate);
    }
    ParallelExecutor::setGlobalThreads(previous);
}
BENCHMARK(BM_QismetVqeEnsembleThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    qismet::bench::configureThreads(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
