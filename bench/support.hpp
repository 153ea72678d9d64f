/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries: seed-averaged
 * scheme runs, series printing, and the standard experiment metrics.
 */

#ifndef QISMET_BENCH_SUPPORT_HPP
#define QISMET_BENCH_SUPPORT_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "apps/experiment_runner.hpp"

namespace qismet::bench {

/** Seeds used by every bench for seed-averaged results. */
inline const std::vector<std::uint64_t> kSeeds = {7, 17, 27};

/** Seed-averaged outcome of one scheme. */
struct AveragedOutcome
{
    std::string scheme;
    double meanEstimate = 0.0;
    double meanIdealEnergy = 0.0;
    double meanSkipFraction = 0.0;
    double meanCircuits = 0.0;
    /** Per-iteration reported-energy series of the first seed. */
    std::vector<double> exampleSeries;
};

/**
 * Run one scheme over the standard seed set and average the endpoints.
 *
 * Trials fan out over the global ParallelExecutor (QismetVqe::
 * runEnsemble) and are folded in seed order, so the averages are
 * bit-identical for every `--threads` setting.
 */
AveragedOutcome runAveraged(const QismetVqe &runner, QismetVqeConfig config,
                            Scheme scheme,
                            const std::vector<std::uint64_t> &seeds = kSeeds);

/**
 * Configure the global ParallelExecutor from the command line: accepts
 * `--threads=N` or `--threads N` (0 means all hardware threads). With
 * no flag, the QISMET_THREADS environment variable still applies.
 * Consumed arguments are removed from argv/argc so downstream parsers
 * (google-benchmark) never see them. A value parseThreadCount rejects,
 * or a bad QISMET_THREADS / QISMET_SIMD, prints the error and exits 2.
 * Call first thing in every bench main; returns the active thread
 * count.
 */
std::size_t configureThreads(int &argc, char **argv);

/** Print a convergence series as a caption + sparkline + endpoints. */
void printSeries(const std::string &label, const std::vector<double> &series);

/** Paper-style percent improvement (E_base - E_scheme) / |E_base|. */
double percentImprovement(double base_estimate, double scheme_estimate);

/** Print the standard bench header. */
void printHeader(const std::string &figure, const std::string &claim);

} // namespace qismet::bench

#endif // QISMET_BENCH_SUPPORT_HPP
