/**
 * @file
 * Batched-expectation engine timings: a term-by-term fold of the
 * per-string expectation() (the batched:0 rows) vs the single-sweep
 * grouped evaluator (pauli/expectation_plan.hpp, the batched:1 rows),
 * with amps-and-terms/sec throughput counters. The batched:1/simd:1 vs
 * batched:0 ratio at 10+ qubits feeds the >=2x CI floor in
 * tools/ci.sh; BENCH_expectation.json tracks absolute wall-clock.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "pauli/expectation.hpp"
#include "pauli/expectation_plan.hpp"
#include "sim/density_matrix.hpp"
#include "support.hpp"

using namespace qismet;

namespace {

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

/**
 * The batched:0 rows: one full amplitude walk per term through the
 * per-string expectation(), folded in term order — the arithmetic the
 * batched engine reproduces bit for bit.
 */
template <typename State>
double
termByTerm(const State &x, const PauliSum &h)
{
    double e = 0.0;
    for (const PauliTerm &t : h.terms())
        e += t.coefficient * expectation(x, t.pauli);
    return e;
}

Statevector
benchState(int n)
{
    Rng rng(91);
    std::vector<Complex> amps(std::size_t{1} << n);
    for (auto &a : amps)
        a = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    Statevector st(std::move(amps));
    st.normalize();
    return st;
}

/**
 * Deterministic 24-term Hamiltonian with realistic xmask sharing: Z
 * fields and a ZZ chain (one xmask-0 group) plus XX and YY pairs on
 * the same bonds (shared per-bond xmasks) — the TFIM/Heisenberg shape
 * the >=2x floor is gated on.
 */
PauliSum
benchHamiltonian(int n)
{
    const auto width = static_cast<std::size_t>(n);
    PauliSum h(n);
    int terms = 0;
    for (int q = 0; q < n && terms < 8; ++q, ++terms) {
        std::string label(width, 'I');
        label[static_cast<std::size_t>(q)] = 'Z';
        h.add(0.9 - 0.05 * q, label);
    }
    for (int q = 0; q + 1 < n && terms < 14; ++q, ++terms) {
        std::string label(width, 'I');
        label[static_cast<std::size_t>(q)] = 'Z';
        label[static_cast<std::size_t>(q) + 1] = 'Z';
        h.add(0.5 + 0.03 * q, label);
    }
    for (int q = 0; q + 1 < n && terms < 19; ++q, ++terms) {
        std::string label(width, 'I');
        label[static_cast<std::size_t>(q)] = 'X';
        label[static_cast<std::size_t>(q) + 1] = 'X';
        h.add(0.4 - 0.02 * q, label);
    }
    for (int q = 0; q + 1 < n && terms < 24; ++q, ++terms) {
        std::string label(width, 'I');
        label[static_cast<std::size_t>(q)] = 'Y';
        label[static_cast<std::size_t>(q) + 1] = 'Y';
        h.add(0.3 + 0.01 * q, label);
    }
    return h;
}

void
setThroughputCounters(benchmark::State &state, int n,
                      std::size_t num_terms)
{
    const double amps = static_cast<double>(std::size_t{1} << n);
    // The quantity the single-sweep engine optimizes: (amplitude,
    // term) pairs touched per second. Legacy does one full amplitude
    // walk per term; batched does one walk for the whole sum.
    state.counters["amp_terms_per_sec"] = benchmark::Counter(
        amps * static_cast<double>(num_terms),
        benchmark::Counter::kIsIterationInvariantRate);
    state.counters["amps_per_sec"] = benchmark::Counter(
        amps, benchmark::Counter::kIsIterationInvariantRate);
    state.SetLabel(simdBackendName());
}

void
BM_SumExpectation(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const bool batched = state.range(1) != 0;
    SimdScope simd(state.range(2) != 0);
    const Statevector st = benchState(n);
    const PauliSum h = benchHamiltonian(n);

    for (auto _ : state) {
        benchmark::DoNotOptimize(batched ? expectation(st, h)
                                         : termByTerm(st, h));
    }
    setThroughputCounters(state, n, h.numTerms());
}
BENCHMARK(BM_SumExpectation)
    ->ArgsProduct({{10, 12, 14}, {0, 1}, {0, 1}})
    ->ArgNames({"qubits", "batched", "simd"});

void
BM_PlanEvaluate(benchmark::State &state)
{
    // The cross-iteration steady state: plan compiled once (a cache
    // hit in EnergyEstimator terms), evaluate per iteration.
    const int n = static_cast<int>(state.range(0));
    SimdScope simd(state.range(1) != 0);
    const Statevector st = benchState(n);
    const PauliSum h = benchHamiltonian(n);
    const ExpectationPlan plan(h);

    for (auto _ : state) {
        benchmark::DoNotOptimize(plan.evaluate(st));
    }
    setThroughputCounters(state, n, h.numTerms());
}
BENCHMARK(BM_PlanEvaluate)
    ->ArgsProduct({{10, 12, 14}, {0, 1}})
    ->ArgNames({"qubits", "simd"});

void
BM_PlanCompile(benchmark::State &state)
{
    // The compile every EnergyEstimator pays once, in its constructor.
    const int n = static_cast<int>(state.range(0));
    const PauliSum h = benchHamiltonian(n);
    for (auto _ : state) {
        const ExpectationPlan plan(h);
        benchmark::DoNotOptimize(plan.numGroups());
    }
    state.counters["terms_per_sec"] = benchmark::Counter(
        static_cast<double>(h.numTerms()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PlanCompile)->Arg(10)->Arg(14);

void
BM_DensityMatrixSumExpectation(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const bool batched = state.range(1) != 0;
    const DensityMatrix rho{benchState(n)};
    const PauliSum h = benchHamiltonian(n);

    for (auto _ : state) {
        benchmark::DoNotOptimize(batched ? expectation(rho, h)
                                         : termByTerm(rho, h));
    }
    setThroughputCounters(state, n, h.numTerms());
}
BENCHMARK(BM_DensityMatrixSumExpectation)
    ->ArgsProduct({{6, 8}, {0, 1}})
    ->ArgNames({"qubits", "batched"});

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
