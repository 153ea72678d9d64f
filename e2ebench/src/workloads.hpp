/**
 * @file
 * The benchmark's three workloads (NOTES.md says why each was chosen).
 *
 *  - analytic-table1: the six Table-1 apps x {Baseline, QISMET}, Analytic
 *    estimator, 2000-job budgets, in memory.
 *  - sampling-table1: the same twelve runs in Sampling mode, 4096 shots
 *    per group, tensored mitigation, 300-job budgets, in memory.
 *  - serve-durable: 48 Table-1 QISMET jobs submitted at once (an open
 *    loop) to a durable ServeScheduler: 2 workers, 4 guadalupe
 *    backends, 4 tenants, 2 priorities; a quarter carry the 6% fault
 *    load and a quarter a two-crash plan.
 *
 * Every input is a pure function of the workload seed.
 */

#ifndef QISMET_E2EBENCH_WORKLOADS_HPP
#define QISMET_E2EBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "serve/scheduler.hpp"
#include "tracer.hpp"

namespace e2e {

/** Serve-layer worker threads (the fleet's CPU budget). */
inline constexpr std::size_t kServeWorkers = 2;

/** One run of a Table-1 workload. */
struct Table1Run
{
    int app = 1; ///< Table-1 row, 1..6
    qismet::QismetVqeConfig config;
};

/** The built inputs of a Table-1 workload. */
struct Table1Workload
{
    std::vector<qismet::Application> apps; ///< apps[i] is row i + 1
    std::vector<qismet::QismetVqe> runners;
    /** Baseline then QISMET for each app, sharing the app's run seed. */
    std::vector<Table1Run> runs;
};

/** Build analytic-table1 (`sampling` false) or sampling-table1. */
Table1Workload makeTable1(bool sampling, std::uint64_t seed);

/** The 48 job specs of serve-durable. */
std::vector<qismet::ServeJobSpec> makeServeSpecs(std::uint64_t seed);

/** Scheduler configuration of serve-durable. */
qismet::ServeSchedulerConfig serveConfig(const std::string &state_dir);

/** What one serve-durable pass observed; vectors are by spec index. */
struct ServePass
{
    /** First submit to the last completion observed. */
    double seconds = 0.0;
    std::uint64_t machineJobs = 0;
    /** submit -> Completed, for completed jobs. */
    std::vector<double> latencyMs;
    /** Each job's terminal poll() view. */
    std::vector<qismet::ServeJobInfo> finals;
    /** Jobs that ended Shed, Failed or Cancelled. */
    std::size_t notCompleted = 0;
    std::uint64_t migrations = 0;
};

/**
 * One open-loop pass: remove `state_dir` and sync() (outside the timed
 * region), build the scheduler, submit every spec at once, then poll
 * every millisecond until all are terminal. With a tracer, submit
 * calls, time queued and time running are recorded as spans (one lane
 * per job).
 */
ServePass servePass(const std::vector<qismet::ServeJobSpec> &specs,
                    const std::string &state_dir, Tracer *tracer);

} // namespace e2e

#endif // QISMET_E2EBENCH_WORKLOADS_HPP
