#include "vqe/job.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

std::size_t
JobExecutor::previousSlotAt(const std::vector<double> &theta) const
{
    // Exact bits, not ==: -0.0 and 0.0 are different points to reuse.
    for (const std::size_t slot : previousJob_) {
        const std::vector<double> &cached = pool_[slot].theta;
        if (cached.size() == theta.size() &&
            (theta.empty() ||
             std::memcmp(cached.data(), theta.data(),
                         theta.size() * sizeof(double)) == 0))
            return slot;
    }
    return kNoSlot;
}

std::size_t
JobExecutor::freeSlot()
{
    // Never a slot of the previous job: if preparing this job throws,
    // the previous job's points are still what previousJob_ says.
    auto used = [](const std::vector<std::size_t> &slots, std::size_t s) {
        return std::find(slots.begin(), slots.end(), s) != slots.end();
    };
    for (std::size_t s = 0; s < pool_.size(); ++s)
        if (!used(previousJob_, s) && !used(slots_, s))
            return s;
    pool_.emplace_back();
    return pool_.size() - 1;
}

double
JobExecutor::peekNextIntensity() const
{
    return trace_.at(jobCount_);
}

JobResult
JobExecutor::execute(const JobRequest &request)
{
    JobResult result;
    execute(request, result);
    return result;
}

void
JobExecutor::execute(const JobRequest &request, JobResult &result)
{
    if (request.evaluations.empty())
        throw std::invalid_argument("JobExecutor: empty job");

    result.energies.clear();
    result.jobIndex = jobCount_;
    result.transientIntensity = trace_.at(jobCount_);
    result.status = JobStatus::Completed;
    result.shotFraction = 1.0;

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
        return;
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
    // sub-streams are taken serially in evaluation order.
    const std::size_t n_evals = request.evaluations.size();
    taus_.resize(n_evals);
    for (auto &tau : taus_)
        tau = result.transientIntensity +
              jobRng.normal(0.0,
                            intraJobJitter_ +
                                relativeJitter_ *
                                    std::abs(result.transientIntensity));
    evalRngs_.clear();
    for (std::size_t i = 0; i < n_evals; ++i)
        evalRngs_.push_back(jobRng.split());

    // Reuse the previous executed job's points where θ repeats (the
    // QISMET reference rerun, a retry): every lookup first, then a free
    // slot for each miss. The misses are prepared in a fan-out, each
    // into its own slot; the finishes then run in evaluation order.
    slots_.clear();
    misses_.clear();
    for (std::size_t i = 0; i < n_evals; ++i)
        slots_.push_back(previousSlotAt(request.evaluations[i]));
    for (std::size_t i = 0; i < n_evals; ++i) {
        if (slots_[i] != kNoSlot)
            continue;
        slots_[i] = freeSlot();
        pool_[slots_[i]].theta = request.evaluations[i];
        misses_.push_back(i);
    }
    ParallelExecutor::global().parallelFor(
        misses_.size(), [&](std::size_t m) {
            CachedPoint &slot = pool_[slots_[misses_[m]]];
            estimator_.prepare(slot.theta, slot.point);
        });
    result.energies.resize(n_evals);
    for (std::size_t i = 0; i < n_evals; ++i)
        result.energies[i] =
            estimator_.finish(pool_[slots_[i]].point, taus_[i],
                              evalRngs_[i], result.shotFraction);
    pointCount_ += misses_.size();
    previousJob_.assign(slots_.begin(), slots_.end());

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
}

} // namespace qismet
