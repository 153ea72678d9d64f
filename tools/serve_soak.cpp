/**
 * @file
 * Serve-layer soak driver: pushes a deterministic fleet of short
 * multi-tenant QISMET runs through the ServeScheduler, with planned
 * per-run crashes and an optional whole-process kill (exit 43), and
 * verifies every run's trajectory digest against its solo execution.
 *
 *   # 200 runs, 4 workers, crash injection, verify against solo
 *   ./build/tools/serve_soak --runs 200 --workers 4 \
 *       --state-dir /tmp/soak --verify-solo
 *
 *   # kill the whole scheduler process at the 40th job boundary...
 *   ./build/tools/serve_soak --runs 200 --workers 4 \
 *       --state-dir /tmp/soak --kill-after 40     # exits 43
 *   # ...and resume: recovered jobs finish bit-identically
 *   ./build/tools/serve_soak --resume --workers 4 \
 *       --state-dir /tmp/soak --verify-solo
 *
 * The workload set is a pure function of --seed: every spec (tenant,
 * kind, run seed, budget, priority, crash plan) derives through the
 * StreamDomain convention, so two invocations with equal seeds soak
 * identical fleets and --digest-out files diff clean across any
 * --workers value.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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
        "usage: serve_soak [options]\n"
        "  --runs N         workload size (default 100)\n"
        "  --workers N      scheduler worker threads (default 2)\n"
        "  --backends N     backend fleet size (default 4)\n"
        "  --tenants N      tenant count (default 5)\n"
        "  --seed S         master workload seed (default 2026)\n"
        "  --jobs N         per-run job budget (default 12)\n"
        "  --crash-frac F   fraction of runs with a crash plan\n"
        "                   (default 0.25; needs --state-dir)\n"
        "  --state-dir D    durable scheduler state in D\n"
        "  --resume         recover D's manifest instead of submitting\n"
        "  --kill-after N   std::_Exit(43) at the Nth completed job\n"
        "                   boundary (simulated operator SIGKILL)\n"
        "  --verify-solo    re-run every spec solo and compare digests\n"
        "  --digest-out F   write 'jobId,digest' lines to F\n"
        "  --threads N      global ParallelExecutor threads (default 1)\n");
    return 2;
}

/** Deterministic workload: spec i is a pure function of (seed, i). */
ServeJobSpec
makeSpec(std::uint64_t master_seed, std::uint64_t index,
         std::uint64_t tenants, std::size_t jobs_per_run,
         double crash_frac, bool durable)
{
    Rng rng(deriveStreamSeed(master_seed, StreamDomain::kSoakSpec,
                             index));
    ServeJobSpec spec;
    spec.tenantId = rng.uniformInt(tenants);
    spec.priority = static_cast<int>(rng.uniformInt(3));
    // TFIM applications dominate (they are the cheap short runs);
    // sprinkle the H2 and QAOA golden constructions in.
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
    if (durable && rng.uniform() < crash_frac) {
        Rng plan(deriveStreamSeed(
            master_seed, StreamDomain::kSoakCrashPlan, index));
        const std::uint64_t legs = 1 + plan.uniformInt(2);
        std::uint64_t at = 0;
        for (std::uint64_t leg = 0; leg < legs; ++leg) {
            at += 1 + plan.uniformInt(4);
            spec.crashPlan.push_back(at);
        }
    }
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t runs = 100;
    std::size_t workers = 2;
    std::size_t backends = 4;
    std::uint64_t tenants = 5;
    std::uint64_t seed = 2026;
    std::size_t jobsPerRun = 12;
    double crashFrac = 0.25;
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
        else if (arg == "--jobs" && hasValue)
            jobsPerRun = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--crash-frac" && hasValue)
            crashFrac = std::atof(argv[++i]);
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
                std::fprintf(stderr, "serve_soak: %s\n", err.what());
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
        ServeSchedulerConfig cfg;
        cfg.workers = workers;
        // An identical-machine fleet, the common soak shape.
        cfg.backends.assign(backends, "guadalupe");
        cfg.stateDir = stateDir;
        cfg.resume = resume;

        if (killAfter > 0)
            CrashPoints::arm(kCrashServeJobBoundary, killAfter,
                             CrashPoints::Action::Exit);

        ServeScheduler scheduler(cfg);
        if (!resume) {
            for (std::uint64_t i = 0; i < runs; ++i)
                scheduler.submit(makeSpec(seed, i, tenants, jobsPerRun,
                                          crashFrac,
                                          !stateDir.empty()));
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
            if (info->state == ServeJobState::Completed) {
                ++completed;
                table += std::to_string(id) + ',' +
                         info->trajectoryDigest + '\n';
            }
        }
        const std::uint64_t combined = fnv1a64(table);
        std::printf("soak: %zu/%zu completed, combined digest "
                    "%016llx (replayed %zu)\n",
                    completed, byId.size(),
                    static_cast<unsigned long long>(combined),
                    scheduler.replayedCompletions());
        if (!digestOut.empty())
            atomicWriteFile(digestOut, table);

        if (verifySolo) {
            // Solo re-execution of every completed spec, sequentially
            // on this thread — the reference the serve layer must
            // match bit for bit.
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
                             "serve_soak: %zu digest mismatches\n",
                             mismatches);
                return 1;
            }
            std::printf("verify-solo: all %zu completed runs "
                        "bit-identical to solo execution\n",
                        completed);
        }
    }
    catch (const std::exception &err) {
        std::fprintf(stderr, "serve_soak: %s\n", err.what());
        return 1;
    }
    return 0;
}
