/**
 * @file
 * ServeScheduler: the multi-tenant serve layer's public face — async
 * submit/poll/cancel over a worker pool, with per-run checkpoint
 * isolation and whole-process kill recovery.
 *
 * Architecture (DESIGN.md §12): one mutex guards a deterministic
 * ServeCore (job table + fair-share queue + backend leases); a
 * qismet::ThreadPool executes run legs. Workers take the lock only at
 * leg boundaries (dispatch, completion, crash), so the serialized
 * section is a few map updates per leg while the heavy VQA simulation
 * runs lock-free.
 *
 * Determinism argument, in full:
 *  1. A run's trajectory is a pure function of its ServeJobSpec
 *     (job_spec.hpp): the lease, worker thread, and interleaving never
 *     feed its randomness.
 *  2. Crash/resume legs recover through src/persist, whose contract is
 *     bit-identical continuation; crashAfterIters is excluded from the
 *     run-config digest, so every leg joins the same checkpoint
 *     lineage.
 *  3. Therefore every job's final digest equals its solo-execution
 *     digest at any worker count, any backlog of filler tenants, and
 *     any crash pattern — which the soak harness verifies job by job.
 *  Dispatch *order* is deterministic only single-threaded (property
 *  tests); under threads it depends on completion timing, and nothing
 *  downstream of it is allowed to matter.
 *
 * Durability: with a stateDir, every job directory stateDir/run-<id>
 * holds the run's own journal+snapshot, and stateDir/manifest.qsvm
 * records submissions/outcomes write-ahead — including admission
 * sheds, migration failures and backend health/breaker transitions.
 * Killing the process (CrashPoints Exit at kCrashServeJobBoundary,
 * exit 43) and constructing a scheduler with resume=true rebuilds the
 * job table, the fleet health state and the fleet clock, keeps
 * completed results, and resumes in-flight runs from their
 * checkpoints — even mid-way through a chaos outage window.
 *
 * Fleet resilience (DESIGN.md §15): a leg whose backend is inside a
 * chaos outage window faults without consuming any run randomness; the
 * job migrates (same leg, same RNG lineage, same checkpoint) to the
 * next leasable backend. Breaker trips and probes run on the core's
 * fleet tick clock; run deadlines run on each run's own simulated
 * seconds. Neither feeds run randomness, so every completed job's
 * digest still equals its solo digest.
 */

#ifndef QISMET_SERVE_SCHEDULER_HPP
#define QISMET_SERVE_SCHEDULER_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/manifest.hpp"
#include "serve/serve_core.hpp"

namespace qismet {

/** Scheduler configuration. */
struct ServeSchedulerConfig
{
    /** Worker threads executing run legs (>= 1). */
    std::size_t workers = 1;
    /** Machine name per backend; fleet size = list size. */
    std::vector<std::string> backends = {"guadalupe"};
    /**
     * Durability root: per-run checkpoints in stateDir/run-<id>, the
     * manifest at stateDir/manifest.qsvm. Empty = fully in-memory
     * (no crash plans allowed, nothing survives the process).
     */
    std::string stateDir;
    /** Recover from stateDir's manifest if one exists. */
    bool resume = false;
    /** Root seed of the backend calibration streams. */
    std::uint64_t backendSeed = 0x5EbfE5eed;
    /**
     * Admission bound on the queued-job count; 0 = unbounded. Past the
     * bound the lowest-priority queued job is shed (ServeJobState::Shed,
     * journaled). With `startPaused`, the shed *set* is deterministic:
     * queue depth evolves purely with submission order, independent of
     * worker timing.
     */
    std::size_t queueBound = 0;
    /**
     * Chaos schedule driving backend outages, slowdowns, calibration
     * storms (fault/chaos.hpp). Not owned; must outlive the scheduler.
     * Null = no chaos. Folded into the fleet digest: a manifest written
     * under one schedule refuses to resume under another.
     */
    const ChaosSchedule *chaos = nullptr;
    /** Health/breaker hysteresis knobs (backend_pool.hpp). */
    HealthPolicy health;
    /**
     * Construct with dispatch paused: submissions queue (and shed)
     * without running until setPaused(false). The chaos harness uses
     * this to make admission-control decisions independent of worker
     * completion timing.
     */
    bool startPaused = false;
};

class ServeScheduler
{
  public:
    /** @throws std::invalid_argument on a bad config;
     *  ManifestError/CheckpointError on corrupt recovery state. */
    explicit ServeScheduler(ServeSchedulerConfig config);

    /** Drains all pending work, then joins the workers. */
    ~ServeScheduler();

    ServeScheduler(const ServeScheduler &) = delete;
    ServeScheduler &operator=(const ServeScheduler &) = delete;

    /** Set a tenant's fair-share weight (>0). */
    void setTenantWeight(std::uint64_t tenant_id, double weight);

    /**
     * Enqueue a job and return its id immediately; the run executes
     * asynchronously on the worker pool.
     * @throws std::invalid_argument on an invalid spec, or a crash
     *         plan without a stateDir to recover from.
     */
    std::uint64_t submit(const ServeJobSpec &spec);

    /** Cancel a queued job (running legs are never preempted). */
    bool cancel(std::uint64_t job_id);

    /**
     * Pause/unpause dispatch. Pausing never preempts running legs;
     * unpausing dispatches everything runnable.
     */
    void setPaused(bool paused);

    bool paused() const;

    /** Snapshot of one job's state, or nullopt for an unknown id. */
    std::optional<ServeJobInfo> poll(std::uint64_t job_id) const;

    /** Block until every submitted job is terminal. */
    void drain();

    /** Jobs recovered as already-completed from the manifest. */
    std::size_t replayedCompletions() const
    {
        return replayedCompletions_;
    }

    /** All job ids in submission order. */
    std::vector<std::uint64_t> jobIds() const;

    /** Completed-lease count of one backend (soak telemetry). */
    std::uint64_t backendLeases(std::size_t backend_id) const;

    /** Legs dispatched for one tenant (fairness telemetry). */
    std::uint64_t tenantDispatches(std::uint64_t tenant_id) const;

    /** Fleet resilience counters (sheds, migrations, breaker trips…). */
    ServeFleetStats fleetStats() const;

    /** Fleet clock, in ticks. */
    std::uint64_t clockNow() const;

    /**
     * Chaos-harness hook: advance the fleet clock (e.g. past an outage
     * window) and dispatch anything that became runnable.
     */
    void advanceClock(std::uint64_t ticks);

  private:
    void recoverLocked();
    /**
     * Drain every runnable leg out of the core (lock held). The caller
     * releases the lock and hands the batch to dispatchBatch(): leg
     * *identity* (backend lease, spec, resume point) is fixed here
     * under the mutex, while the ThreadPool submission happens outside
     * it so the scheduler lock is never held across pool dispatch
     * (lock-order rule).
     */
    std::vector<ServeDispatch> collectDispatchesLocked();
    /** Submit a collected batch to the pool. Call with no lock held. */
    void dispatchBatch(std::vector<ServeDispatch> batch);
    /** Execute one leg on a worker thread. */
    void runLeg(const ServeDispatch &dispatch);
    /** Journal shed/failed/health events drained from the core. */
    void flushCoreEventsLocked();
    /** Migrate a backend-faulted leg; returns the follow-up batch. */
    std::vector<ServeDispatch> faultLegLocked(
        const ServeDispatch &dispatch);
    std::string runDir(std::uint64_t job_id) const;

    ServeSchedulerConfig config_;
    BackendPool backendPool_;
    mutable std::mutex mutex_;
    std::condition_variable idle_;
    ServeCore core_;
    std::optional<ServeManifest> manifest_;
    std::size_t replayedCompletions_ = 0;
    bool paused_ = false;
    /** Created last, destroyed first: workers must die before state. */
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace qismet

#endif // QISMET_SERVE_SCHEDULER_HPP
