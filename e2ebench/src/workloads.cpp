#include "workloads.hpp"

#include <filesystem>
#include <numeric>
#include <thread>

#include <unistd.h>

#include "common/rng.hpp"

namespace e2e {

using namespace qismet;

namespace {

// Stream domains of the benchmark's own input generators, disjoint
// from the library's StreamDomain values.
constexpr std::uint64_t kTable1RunSeed = 0xE2E0001;
constexpr std::uint64_t kServeSpecSeed = 0xE2E0002;
constexpr std::uint64_t kServeShape = 0xE2E0003;

constexpr std::size_t kServeJobs = 48;
constexpr std::size_t kServeBackends = 4;
constexpr std::uint64_t kServeTenants = 4;

bool
terminal(ServeJobState state)
{
    return state != ServeJobState::Queued &&
           state != ServeJobState::Running;
}

} // namespace

Table1Workload
makeTable1(bool sampling, std::uint64_t seed)
{
    Table1Workload w;
    for (int i = 1; i <= 6; ++i) {
        w.apps.push_back(application(i));
        w.runners.push_back(w.apps.back().makeRunner());
    }
    for (int i = 1; i <= 6; ++i) {
        for (Scheme scheme : {Scheme::Baseline, Scheme::Qismet}) {
            Table1Run run;
            run.app = i;
            QismetVqeConfig &cfg = run.config;
            cfg.scheme = scheme;
            // Both schemes of one app share its seed, as runComparison
            // does, so the improvement factor compares like with like.
            cfg.seed = deriveStreamSeed(seed, kTable1RunSeed,
                                        static_cast<std::uint64_t>(i));
            cfg.traceVersion =
                w.apps[static_cast<std::size_t>(i - 1)].spec.traceVersion;
            if (sampling) {
                cfg.totalJobs = 300;
                cfg.estimator.mode = EstimatorMode::Sampling;
                cfg.estimator.shots = 4096;
                cfg.estimator.mitigateMeasurement = true;
            } else {
                cfg.totalJobs = 2000;
                cfg.estimator.mode = EstimatorMode::Analytic;
            }
            w.runs.push_back(run);
        }
    }
    return w;
}

std::vector<ServeJobSpec>
makeServeSpecs(std::uint64_t seed)
{
    // Every (app, tenant, priority) combination exactly once, so the
    // mix is the same for every seed; the seed picks the run seeds,
    // which jobs carry faults or crashes, and where they crash.
    std::vector<ServeJobSpec> specs(kServeJobs);
    for (std::size_t i = 0; i < kServeJobs; ++i) {
        ServeJobSpec &s = specs[i];
        s.kind = WorkloadKind::TfimApp;
        s.appIndex = 1 + static_cast<int>(i % 6);
        s.tenantId = (i / 6) % kServeTenants;
        s.priority = static_cast<int>(i / (kServeJobs / 2));
        s.seed = deriveStreamSeed(seed, kServeSpecSeed, i);
        s.totalJobs = 400;
        s.scheme = Scheme::Qismet;
        s.snapshotEveryIters = 10;
    }
    std::vector<std::size_t> order(kServeJobs);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng shuffle(deriveStreamSeed(seed, kServeShape, 0));
    for (std::size_t i = kServeJobs - 1; i > 0; --i)
        std::swap(order[i], order[shuffle.uniformInt(i + 1)]);
    for (std::size_t k = 0; k < kServeJobs / 4; ++k)
        specs[order[k]].withFaults = true;
    for (std::size_t k = kServeJobs / 4; k < kServeJobs / 2; ++k) {
        // A 400-job QISMET run lasts about 180 iterations; both crashes
        // land well inside it.
        Rng plan(deriveStreamSeed(seed, kServeShape, 1 + k));
        const std::uint64_t first = 20 + plan.uniformInt(60);
        specs[order[k]].crashPlan = {first,
                                     first + 20 + plan.uniformInt(60)};
    }
    return specs;
}

ServeSchedulerConfig
serveConfig(const std::string &state_dir)
{
    ServeSchedulerConfig cfg;
    cfg.workers = kServeWorkers;
    cfg.backends.assign(kServeBackends, "guadalupe");
    cfg.stateDir = state_dir;
    return cfg;
}

ServePass
servePass(const std::vector<ServeJobSpec> &specs,
          const std::string &state_dir, Tracer *tracer)
{
    // Without the sync() a previous pass's dirty pages get flushed
    // while this one is timed, in amounts that vary from pass to pass.
    std::filesystem::remove_all(state_dir);
    ::sync();

    ServeScheduler scheduler(serveConfig(state_dir));
    const std::size_t n = specs.size();
    std::vector<std::uint64_t> ids(n);
    std::vector<Clock::time_point> submitted(n);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        submitted[i] = Clock::now();
        ids[i] = scheduler.submit(specs[i]);
        if (tracer != nullptr)
            tracer->record("serve.submit", ids[i], 0, submitted[i],
                           Clock::now());
    }

    // A state change is stamped when a poll first sees it.
    struct Watch
    {
        ServeJobState state = ServeJobState::Queued;
        Clock::time_point since;
        bool done = false;
    };
    std::vector<Watch> watch(n);
    for (std::size_t i = 0; i < n; ++i)
        watch[i].since = submitted[i];

    ServePass pass;
    pass.finals.resize(n);
    Clock::time_point last = start;
    std::size_t open = n;
    while (open > 0) {
        for (std::size_t i = 0; i < n; ++i) {
            Watch &w = watch[i];
            if (w.done)
                continue;
            const std::optional<ServeJobInfo> info = scheduler.poll(ids[i]);
            const Clock::time_point now = Clock::now();
            if (info->state != w.state) {
                if (tracer != nullptr)
                    tracer->record(w.state == ServeJobState::Queued
                                       ? "serve.queue_wait"
                                       : "serve.leg",
                                   ids[i], static_cast<std::uint32_t>(1 + i),
                                   w.since, now);
                w.state = info->state;
                w.since = now;
            }
            if (!terminal(info->state))
                continue;
            w.done = true;
            --open;
            last = now;
            pass.finals[i] = *info;
            if (info->state == ServeJobState::Completed) {
                pass.machineJobs += info->jobsUsed;
                pass.latencyMs.push_back(
                    secondsBetween(submitted[i], now) * 1e3);
            } else {
                ++pass.notCompleted;
            }
        }
        if (open > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pass.seconds = secondsBetween(start, last);
    pass.migrations = scheduler.fleetStats().migrations;
    return pass;
}

} // namespace e2e
