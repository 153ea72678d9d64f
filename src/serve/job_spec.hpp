/**
 * @file
 * Serve-layer job specification: everything that determines one
 * multiplexed VQA run, and nothing else.
 *
 * The determinism contract of the serve layer is stated over this
 * struct: a run's trajectory is a pure function of its spec. Scheduling
 * artifacts — which backend lease the run received, which worker thread
 * executed it, how many crash/resume legs it took — never feed the
 * run's randomness, so the digest of a run served among hundreds of
 * tenants equals the digest of the same spec executed solo
 * (tests/serve/test_serve_golden.cpp pins this against the golden
 * traces).
 */

#ifndef QISMET_SERVE_JOB_SPEC_HPP
#define QISMET_SERVE_JOB_SPEC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "core/qismet_vqe.hpp"

namespace qismet {

/** Workload families the serve layer can materialize. */
enum class WorkloadKind : std::uint8_t
{
    H2Vqe = 0,   ///< H2 molecule VQE (the h2-vqe golden construction)
    TfimApp = 1, ///< Table-1 TFIM application (appIndex selects the row)
    QaoaRing = 2 ///< QAOA MaxCut on the 6-ring (qaoa-maxcut golden)
};

/** One tenant-submitted run request. */
struct ServeJobSpec
{
    /** Owning tenant (fair-share accounting key). */
    std::uint64_t tenantId = 0;
    /** Higher dispatches first, strictly (fair share applies within). */
    int priority = 0;
    WorkloadKind kind = WorkloadKind::TfimApp;
    /** Table-1 application index (TfimApp only, 1..6). */
    int appIndex = 1;
    /** Run seed — the sole source of the run's randomness. */
    std::uint64_t seed = 7;
    /** Machine-job budget of the run. */
    std::size_t totalJobs = 200;
    Scheme scheme = Scheme::Qismet;
    /** Enable the golden 6% mixed fault load inside the run. */
    bool withFaults = false;
    /** Snapshot cadence when the scheduler checkpoints the run. */
    std::size_t snapshotEveryIters = 1;
    /**
     * Planned in-process crashes: strictly increasing optimizer
     * iteration boundaries at which the run throws SimulatedCrash and
     * is requeued for a resume leg. Requires a durable scheduler
     * (stateDir set). Empty = run to completion in one leg.
     */
    std::vector<std::uint64_t> crashPlan;
    /**
     * Deadline budget in the run's own simulated seconds (job slots +
     * fault-retry backoff); 0 = none. The run stops cleanly at the
     * first optimizer-iteration boundary past the budget. Because the
     * run's simulated time is a pure function of this spec, the
     * deadline truncates at the same iteration on every worker count,
     * resume lineage and backend — deterministically.
     */
    double deadlineSimSeconds = 0.0;
    /**
     * Backend-fault migrations the job tolerates before it is marked
     * Failed; 0 = unlimited. Each migration re-queues the same leg
     * (RNG stream and checkpoint intact), so the budget bounds wasted
     * dispatches, not correctness.
     */
    std::uint64_t migrationBudget = 0;

    /** @throws std::invalid_argument on malformed fields. */
    void validate() const;

    void encode(Encoder &enc) const;
    static ServeJobSpec decode(Decoder &dec);

    /** FNV-1a digest of the encoded spec (manifest integrity checks). */
    std::uint64_t digest() const;
};

/**
 * Materialize the runner for a spec. Constructions mirror the golden
 * tests byte for byte, so serve-layer equivalence can be asserted
 * against the pinned golden digests.
 */
QismetVqe buildRunner(const ServeJobSpec &spec);

/**
 * The run configuration for a spec, durability fields unset. The
 * scheduler fills checkpointDir/resume/crashAfterIters per leg; none
 * of those enter runConfigDigest, so every leg of a job recovers the
 * same checkpoint lineage.
 */
QismetVqeConfig buildRunConfig(const ServeJobSpec &spec);

} // namespace qismet

#endif // QISMET_SERVE_JOB_SPEC_HPP
