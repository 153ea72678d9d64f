#include "vqe/job.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "fault/fault_injector.hpp"

namespace qismet {

std::string
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Completed: return "completed";
      case JobStatus::TimedOut: return "timed-out";
      case JobStatus::Failed: return "failed";
      case JobStatus::PartialResult: return "partial";
      case JobStatus::ReferenceLost: return "reference-lost";
    }
    return "?";
}

JobExecutor::JobExecutor(const EnergyEstimator &estimator,
                         TransientTrace trace, std::uint64_t seed,
                         double intra_job_jitter, double relative_jitter,
                         int mitigation_circuits)
    : estimator_(estimator), trace_(std::move(trace)), rng_(seed),
      intraJobJitter_(intra_job_jitter), relativeJitter_(relative_jitter),
      mitigationCircuits_(mitigation_circuits)
{
    // Negated so that NaN fails too.
    if (!(intra_job_jitter >= 0.0))
        throw std::invalid_argument(
            "JobExecutor: intra_job_jitter must be a number >= 0");
    if (!(relative_jitter >= 0.0))
        throw std::invalid_argument(
            "JobExecutor: relative_jitter must be a number >= 0");
    if (mitigation_circuits < 0)
        throw std::invalid_argument("JobExecutor: negative mitigation count");
}

std::shared_ptr<const JobExecutor::CachedPoint>
JobExecutor::previousPointAt(const std::vector<double> &theta) const
{
    // Exact bits, not ==: -0.0 and 0.0 are different points to reuse.
    for (const auto &cached : previousJob_)
        if (cached->theta.size() == theta.size() &&
            (theta.empty() ||
             std::memcmp(cached->theta.data(), theta.data(),
                         theta.size() * sizeof(double)) == 0))
            return cached;
    return nullptr;
}

double
JobExecutor::peekNextIntensity() const
{
    return trace_.at(jobCount_);
}

JobResult
JobExecutor::execute(const JobRequest &request)
{
    if (request.evaluations.empty())
        throw std::invalid_argument("JobExecutor: empty job");

    JobResult result;
    result.jobIndex = jobCount_;
    result.transientIntensity = trace_.at(jobCount_);

    // Fault injection first: a timed-out or errored job never runs its
    // circuits, but it did occupy the machine slot — the job index
    // advances and the circuit volume is charged, exactly like a real
    // fleet bills a failed submission. The fault draw lives in the
    // injector's own counter-based stream, so the executor's RNG and
    // every later job's randomness are untouched.
    FaultEvent fault;
    if (faultInjector_ != nullptr)
        fault = faultInjector_->eventFor(jobCount_,
                                         result.transientIntensity);
    const std::size_t job_circuits =
        request.evaluations.size() * estimator_.numGroups() +
        static_cast<std::size_t>(mitigationCircuits_);
    if (fault.kind == FaultKind::JobTimeout ||
        fault.kind == FaultKind::JobError) {
        result.status = fault.kind == FaultKind::JobTimeout
                            ? JobStatus::TimedOut
                            : JobStatus::Failed;
        circuitCount_ += job_circuits;
        ++jobCount_;
        return result;
    }
    if (fault.kind == FaultKind::PartialResult) {
        result.status = JobStatus::PartialResult;
        result.shotFraction = fault.shotFraction;
    }

    // Counter-based per-job stream: a job's randomness depends only on
    // (seed, job index), never on how many circuits earlier jobs
    // carried or on which thread runs what.
    Rng jobRng = rng_.splitAt(jobCount_);

    // Every circuit in the job sees the job's transient instance plus a
    // little intra-job drift. The jitter draws and the per-circuit
    // sub-streams are taken serially in evaluation order; only the
    // (independent) circuit executions fan out.
    const std::size_t n_evals = request.evaluations.size();
    std::vector<double> taus(n_evals);
    for (auto &tau : taus)
        tau = result.transientIntensity +
              jobRng.normal(0.0,
                            intraJobJitter_ +
                                relativeJitter_ *
                                    std::abs(result.transientIntensity));
    std::vector<Rng> evalRngs;
    evalRngs.reserve(n_evals);
    for (std::size_t i = 0; i < n_evals; ++i)
        evalRngs.push_back(jobRng.split());

    // Reuse the previous executed job's points where θ repeats (the
    // QISMET reference rerun, a retry). Lookups are serial; each miss
    // is prepared inside the fan-out into its own slot.
    std::vector<std::shared_ptr<const CachedPoint>> points(n_evals);
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n_evals; ++i) {
        points[i] = previousPointAt(request.evaluations[i]);
        if (!points[i])
            ++misses;
    }

    result.energies.assign(n_evals, 0.0);
    ParallelExecutor::global().parallelFor(n_evals, [&](std::size_t i) {
        if (!points[i])
            points[i] = std::make_shared<const CachedPoint>(CachedPoint{
                request.evaluations[i],
                estimator_.prepare(request.evaluations[i])});
        result.energies[i] = estimator_.finish(
            points[i]->point, taus[i], evalRngs[i], result.shotFraction);
    });
    pointCount_ += misses;
    previousJob_ = std::move(points);

    // Reference loss: the machine ran the whole batch, but the results
    // of everything past the primary evaluation were dropped on the way
    // back. Running first and truncating after keeps the primary energy
    // bit-identical to the fault-free value.
    if (fault.kind == FaultKind::ReferenceLoss && n_evals > 1) {
        result.status = JobStatus::ReferenceLost;
        result.energies.resize(1);
    }

    // Overhead accounting: each evaluation costs numGroups() circuits,
    // plus any standing mitigation circuits.
    circuitCount_ += job_circuits;
    ++jobCount_;
    return result;
}

} // namespace qismet
