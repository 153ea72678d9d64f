#include "serve/scheduler.hpp"

#include <filesystem>
#include <stdexcept>

#include "fault/crash_point.hpp"
#include "vqe/run_digest.hpp"

namespace qismet {

namespace {

/** Digest of the fleet configuration, stamped into the manifest so a
 * resume under a different fleet is rejected loudly. */
std::uint64_t
fleetDigest(const ServeSchedulerConfig &config)
{
    Encoder enc;
    enc.writeU64(config.backendSeed);
    enc.writeU64(config.backends.size());
    for (const std::string &name : config.backends)
        enc.writeString(name);
    enc.writeU64(config.queueBound);
    enc.writeU64(config.chaos != nullptr ? config.chaos->digest() : 0);
    enc.writeI64(config.health.degradeAfterFaults);
    enc.writeI64(config.health.quarantineAfterFaults);
    enc.writeI64(config.health.recoverAfterSuccesses);
    enc.writeU64(config.health.breakerCooldownTicks);
    enc.writeF64(config.health.breakerCooldownGrowth);
    enc.writeU64(config.health.breakerMaxCooldownTicks);
    enc.writeF64(config.health.latencyDegradeFactor);
    enc.writeF64(config.health.latencyEwmaAlpha);
    return fnv1a64(enc.bytes());
}

} // namespace

namespace {

ServeCoreConfig
coreConfig(const ServeSchedulerConfig &config)
{
    ServeCoreConfig core;
    core.queueBound = config.queueBound;
    core.chaos = config.chaos;
    return core;
}

} // namespace

ServeScheduler::ServeScheduler(ServeSchedulerConfig config)
    : config_(std::move(config)),
      backendPool_(config_.backends, config_.backendSeed,
                   config_.health),
      core_(backendPool_, coreConfig(config_)),
      paused_(config_.startPaused)
{
    if (config_.workers == 0)
        throw std::invalid_argument("ServeScheduler: zero workers");
    if (config_.resume && config_.stateDir.empty())
        throw std::invalid_argument(
            "ServeScheduler: resume without a stateDir");

    planCacheSlots_.reserve(backendPool_.size());
    for (std::size_t b = 0; b < backendPool_.size(); ++b)
        planCacheSlots_.push_back(std::make_unique<PlanCacheSlot>());

    if (!config_.stateDir.empty()) {
        std::filesystem::create_directories(config_.stateDir);
        const std::string path = config_.stateDir + "/manifest.qsvm";
        const std::uint64_t digest = fleetDigest(config_);
        if (config_.resume && fileExists(path)) {
            const ManifestScan scan = scanManifest(path);
            if (scan.fleetDigest != digest)
                throw ManifestError(
                    "manifest '" + path +
                    "' was written by a different fleet "
                    "configuration — refusing to resume");
            manifest_.emplace(path, digest, DurableFile::Mode::Append,
                              scan.cleanOffset);
            // Health frames replay in record order: each carries the
            // full post-change state, so the last one per backend wins
            // and the breaker clocks line up with the restored tick.
            for (const HealthTransition &t : scan.health)
                backendPool_.restoreHealth(t);
            core_.restoreClock(scan.lastTick);
            for (const auto &[jobId, spec] : scan.submitted) {
                core_.replaySubmit(jobId, spec);
                if (scan.cancelled.count(jobId) != 0) {
                    core_.cancel(jobId);
                    continue;
                }
                if (scan.shed.count(jobId) != 0) {
                    core_.replayShed(jobId);
                    continue;
                }
                if (scan.failed.count(jobId) != 0) {
                    core_.replayFailed(jobId);
                    continue;
                }
                auto done = scan.completed.find(jobId);
                if (done != scan.completed.end()) {
                    const ManifestCompletion &c = done->second;
                    ServeRunOutcome outcome;
                    outcome.trajectoryDigest = c.trajectoryDigest;
                    outcome.finalEstimate = c.finalEstimate;
                    outcome.jobsUsed = c.jobsUsed;
                    outcome.deadlineExpired = c.deadlineExpired;
                    outcome.retriesUsed = c.retriesUsed;
                    outcome.faultRetries = c.faultRetries;
                    outcome.backoffSeconds = c.backoffSeconds;
                    outcome.simTimeSeconds = c.simTimeSeconds;
                    core_.replayComplete(jobId, std::move(outcome));
                    ++replayedCompletions_;
                }
            }
        }
        else {
            manifest_.emplace(path, digest,
                              DurableFile::Mode::Truncate);
        }
    }

    pool_ = std::make_unique<ThreadPool>(config_.workers);
    std::vector<ServeDispatch> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        batch = collectDispatchesLocked();
        flushCoreEventsLocked();
    }
    dispatchBatch(std::move(batch));
}

ServeScheduler::~ServeScheduler()
{
    drain();
    // ThreadPool's destructor joins the (now idle) workers before the
    // core, manifest and backend pool go away.
}

void
ServeScheduler::setTenantWeight(std::uint64_t tenant_id, double weight)
{
    std::lock_guard<std::mutex> lock(mutex_);
    core_.setTenantWeight(tenant_id, weight);
}

std::string
ServeScheduler::runDir(std::uint64_t job_id) const
{
    return config_.stateDir + "/run-" + std::to_string(job_id);
}

std::uint64_t
ServeScheduler::submit(const ServeJobSpec &spec)
{
    spec.validate();
    if (!spec.crashPlan.empty() && config_.stateDir.empty())
        throw std::invalid_argument(
            "ServeScheduler::submit: a crash plan needs a durable "
            "scheduler (stateDir) to recover from");
    std::uint64_t id = 0;
    std::vector<ServeDispatch> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = core_.submit(spec);
        if (manifest_)
            manifest_->appendSubmit(id, spec);
        flushCoreEventsLocked();
        batch = collectDispatchesLocked();
        flushCoreEventsLocked();
        // Admission control may have shed the arriving job itself; a
        // drain() waiting on an otherwise-idle scheduler must see it.
        if (core_.pendingCount() == 0)
            idle_.notify_all();
    }
    dispatchBatch(std::move(batch));
    return id;
}

bool
ServeScheduler::cancel(std::uint64_t job_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const bool cancelled = core_.cancel(job_id);
    if (cancelled && manifest_)
        manifest_->appendCancel(job_id);
    // Cancelling the last pending job must wake a concurrent drain():
    // no worker completion is coming to do it.
    if (cancelled && core_.pendingCount() == 0)
        idle_.notify_all();
    return cancelled;
}

void
ServeScheduler::setPaused(bool paused)
{
    std::vector<ServeDispatch> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = paused;
        if (!paused_) {
            batch = collectDispatchesLocked();
            flushCoreEventsLocked();
        }
        if (core_.pendingCount() == 0)
            idle_.notify_all();
    }
    dispatchBatch(std::move(batch));
}

bool
ServeScheduler::paused() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return paused_;
}

std::optional<ServeJobInfo>
ServeScheduler::poll(std::uint64_t job_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return core_.find(job_id);
}

void
ServeScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return core_.pendingCount() == 0; });
}

std::vector<std::uint64_t>
ServeScheduler::jobIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return core_.jobIds();
}

std::uint64_t
ServeScheduler::backendLeases(std::size_t backend_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return backendPool_.leasesCompleted(backend_id);
}

std::uint64_t
ServeScheduler::tenantDispatches(std::uint64_t tenant_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return core_.tenantDispatches(tenant_id);
}

ServeFleetStats
ServeScheduler::fleetStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return core_.fleetStats();
}

// The plan-cache counter reads don't take the scheduler mutex: the
// cache has its own lock, and these are telemetry snapshots (tests
// call them only after drain(), when no leg is running).
std::uint64_t
ServeScheduler::backendPlanCacheHits(std::size_t backend_id) const
{
    return planCacheSlots_.at(backend_id)->cache.hits();
}

std::uint64_t
ServeScheduler::backendPlanCacheMisses(std::size_t backend_id) const
{
    return planCacheSlots_.at(backend_id)->cache.misses();
}

std::size_t
ServeScheduler::backendPlanCacheSize(std::size_t backend_id) const
{
    return planCacheSlots_.at(backend_id)->cache.size();
}

std::uint64_t
ServeScheduler::clockNow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return core_.clockNow();
}

void
ServeScheduler::advanceClock(std::uint64_t ticks)
{
    std::vector<ServeDispatch> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        core_.advanceClock(ticks);
        batch = collectDispatchesLocked();
        flushCoreEventsLocked();
    }
    dispatchBatch(std::move(batch));
}

std::vector<ServeDispatch>
ServeScheduler::collectDispatchesLocked()
{
    std::vector<ServeDispatch> batch;
    if (paused_)
        return batch;
    while (auto dispatch = core_.nextDispatch())
        batch.push_back(*dispatch);
    return batch;
}

void
ServeScheduler::flushCoreEventsLocked()
{
    // Drain unconditionally so the event queues stay bounded even
    // in-memory; journal write-ahead when durable.
    for (std::uint64_t id : core_.drainShedJobs())
        if (manifest_)
            manifest_->appendShed(id);
    for (std::uint64_t id : core_.drainFailedJobs())
        if (manifest_)
            manifest_->appendFailed(id);
    for (const HealthTransition &t : core_.drainHealthTransitions())
        if (manifest_)
            manifest_->appendHealth(t);
}

std::vector<ServeDispatch>
ServeScheduler::faultLegLocked(const ServeDispatch &dispatch)
{
    core_.onBackendFault(dispatch);
    flushCoreEventsLocked();
    std::vector<ServeDispatch> batch = collectDispatchesLocked();
    flushCoreEventsLocked();
    if (core_.pendingCount() == 0)
        idle_.notify_all();
    return batch;
}

void
ServeScheduler::dispatchBatch(std::vector<ServeDispatch> batch)
{
    for (ServeDispatch &dispatch : batch) {
        // The worker gets its own copy of the dispatch; the lambda is
        // the only owner, so the leg's identity can't be raced.
        pool_->submit(
            [this, d = std::move(dispatch)]() mutable { runLeg(d); });
    }
}

void
ServeScheduler::runLeg(const ServeDispatch &dispatch)
{
    // An outage that opened before the leg starts: the backend does no
    // work and no run randomness is consumed — fault and migrate. The
    // re-dispatch happens outside the guard's scope (lock-order rule:
    // never hold the scheduler lock across a pool submit).
    {
        bool down = false;
        std::vector<ServeDispatch> faulted;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (core_.backendDown(dispatch.lease.backendId)) {
                down = true;
                faulted = faultLegLocked(dispatch);
            }
        }
        if (down) {
            dispatchBatch(std::move(faulted));
            return;
        }
    }

    // Heavy section — no scheduler lock held. Everything the run
    // consumes derives from the spec (and its checkpoint directory),
    // which is what keeps it bit-identical to a solo execution.
    bool crashed = false;
    ServeRunOutcome outcome;
    QismetVqeConfig cfg = buildRunConfig(dispatch.spec);

    // Lease-scoped ExpectationPlan cache: the lease grants this leg
    // the backend exclusively, so its slot is touched without the
    // scheduler lock (handoff between legs synchronizes through the
    // mutex that granted the lease). Clearing on tenant change keeps
    // compiled plans from ever crossing tenants; within a tenant the
    // cache persists across legs and jobs, so resubmissions of one
    // Hamiltonian skip the compile step. Cache state is excluded from
    // the run-config digest — a plan is bit-pure, hit or miss.
    {
        PlanCacheSlot &slot = *planCacheSlots_[dispatch.lease.backendId];
        if (slot.used && slot.lastTenant != dispatch.spec.tenantId)
            slot.cache.clear();
        slot.lastTenant = dispatch.spec.tenantId;
        slot.used = true;
        cfg.estimator.planCache = &slot.cache;
        cfg.estimator.planCacheTenant = dispatch.spec.tenantId;
    }
    if (!config_.stateDir.empty()) {
        cfg.checkpointDir = runDir(dispatch.jobId);
        cfg.resume = dispatch.resume;
        cfg.crashAfterIters = dispatch.crashAfterIters;
    }
    try {
        const QismetVqe runner = buildRunner(dispatch.spec);
        const QismetVqeResult result = runner.run(cfg);
        outcome.trajectoryDigest = trajectoryDigest(result.run);
        outcome.finalEstimate = result.run.finalEstimate;
        outcome.jobsUsed = result.run.jobsUsed;
        outcome.deadlineExpired = result.run.deadlineExpired;
        outcome.retriesUsed = result.run.retriesUsed;
        outcome.faultRetries = result.run.faultRetries;
        outcome.backoffSeconds = result.run.backoffSeconds;
        outcome.simTimeSeconds = result.run.simTimeSeconds;
    }
    catch (const SimulatedCrash &) {
        crashed = true;
    }

    std::vector<ServeDispatch> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (crashed) {
            core_.onRunCrashed(dispatch);
        }
        else if (core_.backendDown(dispatch.lease.backendId)) {
            // The run finished but its backend entered an outage window
            // meanwhile: the result is lost in transit. Migrating is
            // digest-safe — the re-run recomputes (or recovers from the
            // job's checkpoint) the identical trajectory, because the
            // trajectory is a pure function of the spec.
            core_.onBackendFault(dispatch);
        }
        else {
            // Write-ahead: the outcome is durable before the job table
            // flips to Completed, so a kill between the two re-runs the
            // leg (deterministic) instead of losing the result.
            if (manifest_) {
                ManifestCompletion completion;
                completion.trajectoryDigest = outcome.trajectoryDigest;
                completion.finalEstimate = outcome.finalEstimate;
                completion.jobsUsed = outcome.jobsUsed;
                completion.tick = core_.clockNow();
                completion.deadlineExpired = outcome.deadlineExpired;
                completion.retriesUsed = outcome.retriesUsed;
                completion.faultRetries = outcome.faultRetries;
                completion.backoffSeconds = outcome.backoffSeconds;
                completion.simTimeSeconds = outcome.simTimeSeconds;
                manifest_->appendComplete(dispatch.jobId, completion);
            }
            core_.onRunFinished(dispatch, std::move(outcome));
        }
        flushCoreEventsLocked();
        // The soak harness arms this point in Exit mode (std::_Exit(43)):
        // a genuine whole-process death at a job boundary, serialized
        // under the scheduler lock so the countdown is exact.
        CrashPoints::hit(kCrashServeJobBoundary);
        batch = collectDispatchesLocked();
        flushCoreEventsLocked();
        if (core_.pendingCount() == 0)
            idle_.notify_all();
    }
    dispatchBatch(std::move(batch));
}

} // namespace qismet
