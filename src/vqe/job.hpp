/**
 * @file
 * The quantum-job model (paper Fig. 7).
 *
 * A Job is the unit of machine execution: a batch of circuits submitted
 * together. QISMET's transient estimation relies on one invariant that
 * this module owns: every circuit in a job experiences (approximately)
 * the same transient-noise instance. The JobExecutor binds one trace
 * intensity τ(job) to the whole batch, adding small per-circuit jitter
 * to model the residual intra-job fluctuation that QISMET's error
 * threshold must tolerate.
 *
 * Jobs can also *fail*: an optional FaultInjector (src/fault) models
 * queue timeouts, backend errors, shot-truncated partial results and
 * dropped reference circuits. Fault decisions are counter-based per job
 * index, so enabling them never perturbs the randomness of the circuits
 * that do run, and schedules are bit-identical at every thread count.
 *
 * Each estimate runs in two halves (vqe/energy_estimator.hpp): the
 * noiseless PreparedPoint, a pure function of θ, and the noisy finish.
 * The executor keeps the points of the previous executed job and reuses
 * one wherever the current job asks for a bit-equal θ — a QISMET
 * reference rerun repeats the previous job's primary point, and a retry
 * repeats the whole job. Reuse skips only simulator work: the circuits
 * are still charged, and every job's jitter draws and RNG streams are
 * unchanged, so results are bit-identical to preparing every point.
 */

#ifndef QISMET_VQE_JOB_HPP
#define QISMET_VQE_JOB_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noise/transient_trace.hpp"
#include "vqe/energy_estimator.hpp"

namespace qismet {

class FaultInjector;

/** One circuit-batch execution request. */
struct JobRequest
{
    /** Parameter vectors whose energies the job must estimate. */
    std::vector<std::vector<double>> evaluations;
};

/** Terminal state of one job. */
enum class JobStatus
{
    Completed,     ///< All circuits ran; results are complete.
    TimedOut,      ///< Queue timeout; no results, the slot is consumed.
    Failed,        ///< Backend error; no results, the slot is consumed.
    PartialResult, ///< Results present but shot-truncated (noisier).
    ReferenceLost, ///< Primary result present; reference reruns dropped.
};

/** Display name of a job status. */
std::string jobStatusName(JobStatus status);

/** Results of a job: one energy per requested evaluation. */
struct JobResult
{
    /**
     * Energies per requested evaluation. Empty when the job failed;
     * truncated to the primary evaluation when the reference was lost.
     */
    std::vector<double> energies;
    /** Transient intensity the job experienced (for analysis only). */
    double transientIntensity = 0.0;
    /** Index of the job in the executor's sequence. */
    std::size_t jobIndex = 0;
    /** How the job ended. */
    JobStatus status = JobStatus::Completed;
    /** Retained shot fraction (< 1 for PartialResult jobs). */
    double shotFraction = 1.0;

    /** True when the job produced no usable results at all. */
    bool failed() const
    {
        return status == JobStatus::TimedOut ||
               status == JobStatus::Failed;
    }
};

/** Executes jobs against an estimator under a transient trace. */
class JobExecutor
{
  public:
    /**
     * @param estimator Energy estimator (shared; not owned).
     * @param trace Per-job transient intensities.
     * @param seed Randomness for shot noise and intra-job jitter.
     * @param intra_job_jitter Stddev of the absolute per-circuit jitter
     *        added to τ(job).
     * @param relative_jitter Per-circuit jitter proportional to
     *        |τ(job)|. The paper's core premise (Section 4.1) is that
     *        the noise landscape shifts *across the candidates of one
     *        gradient-estimation step*; during a burst each circuit in
     *        the job therefore sees a substantially different transient
     *        draw, which is what corrupts gradients and derails the
     *        baseline tuner.
     * @param mitigation_circuits Extra circuits charged to every job for
     *        overhead accounting (e.g. measurement calibration).
     */
    JobExecutor(const EnergyEstimator &estimator, TransientTrace trace,
                std::uint64_t seed, double intra_job_jitter = 0.01,
                double relative_jitter = 0.15,
                int mitigation_circuits = 0);

    /**
     * Execute the next job in sequence.
     *
     * The points the job must prepare fan out over the global
     * ParallelExecutor; the noisy finishes then run in evaluation
     * order. Randomness is scheduling-independent: the job derives a
     * counter-based sub-stream from its index (Rng::splitAt), draws the
     * intra-job jitter serially, and hands every circuit its own child
     * stream before the fan-out — so results are bit-identical for
     * every thread count.
     *
     * An evaluation whose θ is bit-equal (memcmp) to one of the
     * previous executed job's reuses that job's PreparedPoint. Lookups
     * run serially before the fan-out, misses are prepared inside it,
     * and the kept points are replaced by this job's after it. A job
     * that timed out or failed ran nothing and leaves them untouched.
     */
    JobResult execute(const JobRequest &request);

    /**
     * execute(request) into `result`, reusing its buffers: a warm
     * Analytic-mode job whose points fit the kept slots allocates
     * nothing.
     */
    void execute(const JobRequest &request, JobResult &result);

    /** Jobs executed so far. */
    std::size_t jobsExecuted() const { return jobCount_; }

    /**
     * Total circuit evaluations so far (overhead metric, Sec. 8.3).
     * A reused point still counts: the overhead is the machine's.
     */
    std::size_t circuitsExecuted() const { return circuitCount_; }

    /**
     * Points this executor prepared (estimator prepare() calls), i.e.
     * evaluations not served by the previous job's points. Simulator
     * work only; not part of any result or snapshot.
     */
    std::size_t pointsPrepared() const { return pointCount_; }

    /** The transient intensity the *next* job will experience. */
    double peekNextIntensity() const;

    /**
     * Crash-recovery: fast-forward the job/circuit counters to a
     * snapshotted position. The root RNG is never advanced by
     * execute() (every job derives a counter-based splitAt sub-stream
     * from the immutable root), so restoring the counters alone makes
     * the resumed executor produce the uninterrupted run's remaining
     * jobs bit for bit. The same holds for the attached fault
     * injector, whose schedule is a pure function of the job index.
     */
    void restoreProgress(std::size_t jobs_executed,
                         std::size_t circuits_executed)
    {
        jobCount_ = jobs_executed;
        circuitCount_ = circuits_executed;
    }

    const TransientTrace &trace() const { return trace_; }

    /**
     * Attach (or detach, with nullptr) a fault injector. Not owned;
     * must outlive the executor's use. Injection consults the
     * injector's counter-based stream only, so attaching one changes
     * nothing about the randomness of the circuits that still run.
     */
    void setFaultInjector(const FaultInjector *injector)
    {
        faultInjector_ = injector;
    }

    const FaultInjector *faultInjector() const { return faultInjector_; }

  private:
    /** One evaluation's θ and the noiseless half prepared for it. */
    struct CachedPoint
    {
        std::vector<double> theta;
        PreparedPoint point;
    };

    /** No slot (previousSlotAt found no bit-equal θ). */
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    /** The previous executed job's slot at bit-equal θ, or kNoSlot. */
    std::size_t previousSlotAt(const std::vector<double> &theta) const;

    /** A slot neither job references, grown into the pool if need be. */
    std::size_t freeSlot();

    const EnergyEstimator &estimator_;
    TransientTrace trace_;
    Rng rng_;
    double intraJobJitter_;
    double relativeJitter_;
    int mitigationCircuits_;
    const FaultInjector *faultInjector_ = nullptr;
    std::size_t jobCount_ = 0;
    std::size_t circuitCount_ = 0;
    std::size_t pointCount_ = 0;
    /**
     * Point slots, reused job after job: a slot keeps its buffers, so
     * preparing into it allocates nothing once they are sized.
     */
    std::vector<CachedPoint> pool_;
    /** The previous executed job's slots, in evaluation order. */
    std::vector<std::size_t> previousJob_;
    /** This job's slot per evaluation, and the evaluations it prepares. */
    std::vector<std::size_t> slots_;
    std::vector<std::size_t> misses_;
    /** This job's τ and sub-stream per evaluation. */
    std::vector<double> taus_;
    std::vector<Rng> evalRngs_;
};

} // namespace qismet

#endif // QISMET_VQE_JOB_HPP
