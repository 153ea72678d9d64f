/**
 * @file
 * Deterministic chaos harness for the serve layer: generates a fleet
 * fault schedule (backend outage windows, slowdown multipliers,
 * calibration-drift storms, tenant burst floods) from dedicated RNG
 * stream domains, pushes a deterministic multi-tenant workload through
 * a ServeScheduler running under that schedule, and prints a per-job
 * result table plus fleet resilience telemetry.
 *
 *   # same schedule at 1 and 4 workers: digest files diff clean
 *   ./build/tools/serve_chaos --runs 60 --workers 1 --digest-out A
 *   ./build/tools/serve_chaos --runs 60 --workers 4 --digest-out B
 *
 *   # kill the process (exit 43) mid-schedule and resume: the rebuilt
 *   # fleet (health, breaker state, clock) finishes bit-identically
 *   ./build/tools/serve_chaos --state-dir /tmp/chaos --kill-after 10
 *   ./build/tools/serve_chaos --state-dir /tmp/chaos --resume \
 *       --digest-out C
 *
 * Everything is a pure function of (--seed, --chaos-seed, fleet
 * shape): the workload derives through StreamDomain::kChaosWorkload,
 * the schedule through the kChaos* domains, and admission-control
 * sheds are made worker-count-invariant by submitting the whole
 * workload with dispatch paused. The per-job table (id, state,
 * digest) is therefore identical at any --workers value and across
 * kill/resume — which is exactly what the CI chaos stage diffs.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/chaos.hpp"
#include "fault/crash_point.hpp"
#include "serve/scheduler.hpp"
#include "vqe/run_digest.hpp"

using namespace qismet;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: serve_chaos [options]\n"
        "  --runs N         base workload size (default 60)\n"
        "  --workers N      scheduler worker threads (default 2)\n"
        "  --backends N     backend fleet size (default 3)\n"
        "  --tenants N      tenant count (default 4)\n"
        "  --seed S         workload seed (default 2026)\n"
        "  --chaos-seed S   chaos-schedule seed (default 99)\n"
        "  --horizon N      chaos horizon in fleet ticks (default 96)\n"
        "  --jobs N         per-run job budget (default 10)\n"
        "  --queue-bound N  admission bound, 0 = unbounded (default 0)\n"
        "  --deadline-frac F fraction of runs with a deadline budget\n"
        "                   (default 0.25)\n"
        "  --state-dir D    durable scheduler state in D\n"
        "  --resume         recover D's manifest instead of submitting\n"
        "  --kill-after N   std::_Exit(43) at the Nth completed job\n"
        "                   boundary (simulated operator SIGKILL)\n"
        "  --verify-solo    re-run every spec solo and compare digests\n"
        "  --digest-out F   write 'jobId,state,digest' lines to F\n"
        "  --threads N      global ParallelExecutor threads (default 1)\n");
    return 2;
}

/** Deterministic workload: spec i is a pure function of (seed, i). */
ServeJobSpec
makeSpec(std::uint64_t master_seed, std::uint64_t index,
         std::uint64_t tenants, std::size_t jobs_per_run,
         double deadline_frac)
{
    Rng rng(deriveStreamSeed(master_seed, StreamDomain::kChaosWorkload,
                             index));
    ServeJobSpec spec;
    spec.tenantId = rng.uniformInt(tenants);
    spec.priority = static_cast<int>(rng.uniformInt(3));
    const std::uint64_t kindDraw = rng.uniformInt(10);
    if (kindDraw < 7) {
        spec.kind = WorkloadKind::TfimApp;
        spec.appIndex = static_cast<int>(1 + rng.uniformInt(6));
    }
    else if (kindDraw < 9) {
        spec.kind = WorkloadKind::QaoaRing;
    }
    else {
        spec.kind = WorkloadKind::H2Vqe;
    }
    spec.seed = rng.engine()();
    spec.totalJobs = jobs_per_run + rng.uniformInt(jobs_per_run);
    spec.withFaults = rng.bernoulli(0.3);
    // A slice of the fleet runs under a deadline budget tight enough
    // to truncate (~60% of the nominal job-slot time), exercising the
    // deterministic deadline path under chaos.
    if (rng.uniform() < deadline_frac)
        spec.deadlineSimSeconds =
            0.6 * static_cast<double>(spec.totalJobs);
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t runs = 60;
    std::size_t workers = 2;
    std::size_t backends = 3;
    std::uint64_t tenants = 4;
    std::uint64_t seed = 2026;
    std::uint64_t chaosSeed = 99;
    std::uint64_t horizon = 96;
    std::size_t jobsPerRun = 10;
    std::size_t queueBound = 0;
    double deadlineFrac = 0.25;
    std::string stateDir;
    bool resume = false;
    int killAfter = 0;
    bool verifySolo = false;
    std::string digestOut;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--runs" && hasValue)
            runs = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (arg == "--workers" && hasValue)
            workers = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--backends" && hasValue)
            backends = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--tenants" && hasValue)
            tenants = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (arg == "--seed" && hasValue)
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (arg == "--chaos-seed" && hasValue)
            chaosSeed =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (arg == "--horizon" && hasValue)
            horizon = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (arg == "--jobs" && hasValue)
            jobsPerRun = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--queue-bound" && hasValue)
            queueBound = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--deadline-frac" && hasValue)
            deadlineFrac = std::atof(argv[++i]);
        else if (arg == "--state-dir" && hasValue)
            stateDir = argv[++i];
        else if (arg == "--resume")
            resume = true;
        else if (arg == "--kill-after" && hasValue)
            killAfter = std::atoi(argv[++i]);
        else if (arg == "--verify-solo")
            verifySolo = true;
        else if (arg == "--digest-out" && hasValue)
            digestOut = argv[++i];
        else if (arg == "--threads" && hasValue) {
            try {
                ParallelExecutor::setGlobalThreads(
                    parseThreadCount("--threads", argv[++i]));
            } catch (const std::invalid_argument &err) {
                std::fprintf(stderr, "serve_chaos: %s\n", err.what());
                return 2;
            }
        }
        else
            return usage();
    }
    if (runs == 0 || tenants == 0 || backends == 0)
        return usage();
    if (resume && stateDir.empty()) {
        std::fprintf(stderr, "--resume needs --state-dir\n");
        return 2;
    }

    try {
        ChaosConfig chaosCfg;
        chaosCfg.backends = backends;
        chaosCfg.tenants = tenants;
        chaosCfg.horizonTicks = horizon;
        const ChaosSchedule schedule =
            generateChaosSchedule(chaosCfg, chaosSeed);
        std::printf("chaos: %zu events, schedule digest %016llx\n",
                    schedule.size(),
                    static_cast<unsigned long long>(schedule.digest()));

        ServeSchedulerConfig cfg;
        cfg.workers = workers;
        cfg.backends.assign(backends, "guadalupe");
        cfg.stateDir = stateDir;
        cfg.resume = resume;
        cfg.queueBound = queueBound;
        cfg.chaos = &schedule;
        // Fresh runs submit with dispatch paused so the shed set is a
        // pure function of the submission order; a resumed manifest
        // re-applies recorded sheds instead, so it dispatches at once.
        cfg.startPaused = !resume;

        if (killAfter > 0)
            CrashPoints::arm(kCrashServeJobBoundary, killAfter,
                             CrashPoints::Action::Exit);

        ServeScheduler scheduler(cfg);
        if (!resume) {
            for (std::uint64_t i = 0; i < runs; ++i)
                scheduler.submit(makeSpec(seed, i, tenants, jobsPerRun,
                                          deadlineFrac));
            // Tenant burst floods from the schedule: each flood event
            // dumps `count` extra low-priority runs from one tenant
            // into the queue, pressing on admission control.
            std::uint64_t burst = runs;
            for (const ChaosEvent &flood : schedule.floods()) {
                for (std::uint64_t j = 0; j < flood.count; ++j) {
                    ServeJobSpec spec =
                        makeSpec(seed, burst++, tenants, jobsPerRun,
                                 deadlineFrac);
                    spec.tenantId = flood.target;
                    spec.priority = 0;
                    scheduler.submit(spec);
                }
            }
            scheduler.setPaused(false);
        }
        scheduler.drain();
        CrashPoints::disarm();

        // Collect results in job-id order (deterministic layout).
        const std::vector<std::uint64_t> ids = scheduler.jobIds();
        std::string table;
        std::size_t completed = 0;
        std::map<std::uint64_t, ServeJobInfo> byId;
        for (std::uint64_t id : ids) {
            const auto info = scheduler.poll(id);
            if (!info)
                continue;
            byId.emplace(id, *info);
            if (info->state == ServeJobState::Completed)
                ++completed;
            table += std::to_string(id) + ',' +
                     serveJobStateName(info->state) + ',' +
                     info->trajectoryDigest + '\n';
        }
        const std::uint64_t combined = fnv1a64(table);
        const ServeFleetStats stats = scheduler.fleetStats();
        std::printf(
            "fleet: shed %llu failed %llu migrations %llu "
            "faults %llu deadlines %llu trips %llu reopens %llu "
            "probes %llu storms %llu skips %llu ticks %llu\n",
            static_cast<unsigned long long>(stats.shed),
            static_cast<unsigned long long>(stats.failed),
            static_cast<unsigned long long>(stats.migrations),
            static_cast<unsigned long long>(stats.backendFaults),
            static_cast<unsigned long long>(stats.deadlineExpirations),
            static_cast<unsigned long long>(stats.breakerTrips),
            static_cast<unsigned long long>(stats.breakerReopens),
            static_cast<unsigned long long>(stats.halfOpenProbes),
            static_cast<unsigned long long>(stats.stormsApplied),
            static_cast<unsigned long long>(stats.timeSkips),
            static_cast<unsigned long long>(stats.clockTicks));
        std::printf("chaos: %zu/%zu completed, combined digest "
                    "%016llx (replayed %zu)\n",
                    completed, byId.size(),
                    static_cast<unsigned long long>(combined),
                    scheduler.replayedCompletions());
        if (!digestOut.empty())
            atomicWriteFile(digestOut, table);

        if (verifySolo) {
            // Solo re-execution of every completed spec, sequentially
            // on this thread — the reference a chaotic fleet must
            // still match bit for bit.
            std::size_t mismatches = 0;
            for (const auto &[id, info] : byId) {
                if (info.state != ServeJobState::Completed)
                    continue;
                const QismetVqe runner = buildRunner(info.spec);
                const QismetVqeResult solo =
                    runner.run(buildRunConfig(info.spec));
                const std::string want = trajectoryDigest(solo.run);
                if (want != info.trajectoryDigest) {
                    ++mismatches;
                    std::fprintf(stderr,
                                 "MISMATCH job %llu: serve %s solo "
                                 "%s\n",
                                 static_cast<unsigned long long>(id),
                                 info.trajectoryDigest.c_str(),
                                 want.c_str());
                }
            }
            if (mismatches != 0) {
                std::fprintf(stderr,
                             "serve_chaos: %zu digest mismatches\n",
                             mismatches);
                return 1;
            }
            std::printf("verify-solo: all %zu completed runs "
                        "bit-identical to solo execution\n",
                        completed);
        }
    }
    catch (const std::exception &err) {
        std::fprintf(stderr, "serve_chaos: %s\n", err.what());
        return 1;
    }
    return 0;
}
