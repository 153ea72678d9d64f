#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/simd.hpp"
#include "common/table_printer.hpp"
#include "common/thread_pool.hpp"

namespace qismet::bench {

AveragedOutcome
runAveraged(const QismetVqe &runner, QismetVqeConfig config, Scheme scheme,
            const std::vector<std::uint64_t> &seeds)
{
    AveragedOutcome out;
    out.scheme = schemeName(scheme);
    config.scheme = scheme;
    const double n = static_cast<double>(seeds.size());
    const std::vector<QismetVqeResult> results =
        runner.runEnsemble(config, seeds);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const QismetVqeResult &res = results[i];
        out.meanEstimate += res.run.finalEstimate / n;
        out.meanIdealEnergy += res.run.finalIdealEnergy / n;
        out.meanSkipFraction += res.skipFraction / n;
        out.meanCircuits +=
            static_cast<double>(res.run.circuitsUsed) / n;
        if (i == 0)
            out.exampleSeries = res.run.iterationEnergies;
    }
    return out;
}

std::size_t
configureThreads(int &argc, char **argv)
{
    try {
        // Resolve the environment knobs first, so a bad QISMET_THREADS
        // or QISMET_SIMD is reported here instead of mid-run.
        ParallelExecutor::global();
        simdEnabled();
        // Consume every occurrence (last wins) so downstream argv
        // parsers — google-benchmark in bench_perf_kernels rejects
        // unknown flags — never see the option.
        for (int i = 1; i < argc;) {
            const char *arg = argv[i];
            const char *value = nullptr;
            int consumed = 0;
            if (std::strncmp(arg, "--threads=", 10) == 0) {
                value = arg + 10;
                consumed = 1;
            } else if (std::strcmp(arg, "--threads") == 0) {
                if (i + 1 >= argc) {
                    std::cerr << "bench: --threads needs a value\n";
                    std::exit(2);
                }
                value = argv[i + 1];
                consumed = 2;
            } else {
                ++i;
                continue;
            }
            ParallelExecutor::setGlobalThreads(
                parseThreadCount("--threads", value));
            for (int j = i; j + consumed <= argc; ++j)
                argv[j] = argv[j + consumed];
            argc -= consumed;
            // Re-examine index i: the shift moved the next argument in.
        }
    } catch (const std::invalid_argument &err) {
        std::cerr << "bench: " << err.what() << "\n";
        std::exit(2);
    }
    const std::size_t active = ParallelExecutor::global().threads();
    if (active > 1)
        std::cout << "[threads] " << active << " workers\n";
    return active;
}

void
printSeries(const std::string &label, const std::vector<double> &series)
{
    if (series.empty()) {
        std::cout << "  " << label << ": (empty)\n";
        return;
    }
    std::cout << "  " << label << "\n    " << sparkline(series) << "\n"
              << "    start " << formatDouble(series.front(), 3)
              << "  end " << formatDouble(series.back(), 3) << "  min "
              << formatDouble(*std::min_element(series.begin(),
                                                series.end()),
                              3)
              << "  max "
              << formatDouble(*std::max_element(series.begin(),
                                                series.end()),
                              3)
              << "\n";
}

double
percentImprovement(double base_estimate, double scheme_estimate)
{
    if (std::abs(base_estimate) < 1e-12)
        return 0.0;
    return (base_estimate - scheme_estimate) / std::abs(base_estimate);
}

void
printHeader(const std::string &figure, const std::string &claim)
{
    std::cout << "\n================================================================\n"
              << figure << "\n" << claim << "\n"
              << "================================================================\n";
}

} // namespace qismet::bench
