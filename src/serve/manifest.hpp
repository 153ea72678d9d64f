/**
 * @file
 * ServeManifest: the scheduler's own write-ahead journal, recording
 * job submissions, cancellations, completions, admission sheds,
 * migration failures and backend health/breaker transitions so a
 * killed serve process (exit 43 mid-soak) can rebuild its job table,
 * its fleet health state and its fleet clock, and resume every
 * in-flight run from its per-run checkpoint.
 *
 * File layout mirrors the run journal (persist/journal.hpp):
 *
 *     header := magic "QSVM" | u32 version | u64 fleetDigest
 *               | u64 fnv1a(preceding 16 bytes)
 *     frame  := u8 type | u32 payloadLen | payload
 *               | u64 fnv1a(type byte + payload)
 *
 * and the reader applies the same fail-closed torn-tail policy: a
 * partial trailing frame is provably a crash artifact and is dropped;
 * any mid-file corruption throws. The manifest stores *facts about
 * jobs* (spec, outcome digest) — never scheduling state like tenant
 * passes or leases, which are recomputed live so recovery can never
 * disagree with the scheduler's own arithmetic.
 */

#ifndef QISMET_SERVE_MANIFEST_HPP
#define QISMET_SERVE_MANIFEST_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "serve/backend_pool.hpp"
#include "serve/job_spec.hpp"

namespace qismet {

/** Raised when a manifest is structurally invalid (not merely torn). */
class ManifestError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Version 2 adds the fleet-resilience frames: admission sheds,
 * migration-budget failures and backend health/breaker transitions,
 * plus the fleet tick + deadline flag on completions. A v1 manifest is
 * rejected (the serve layer has no long-lived stores to migrate; a
 * fresh soak starts a fresh manifest).
 */
inline constexpr std::uint32_t kManifestVersion = 2;

/** Recorded outcome of one completed job. */
struct ManifestCompletion
{
    std::string trajectoryDigest;
    double finalEstimate = 0.0;
    std::uint64_t jobsUsed = 0;
    /** Fleet tick when the completion was recorded (clock restore). */
    std::uint64_t tick = 0;
    /** The run stopped at its simulated-time deadline budget. */
    bool deadlineExpired = false;
    /** Retry/backoff telemetry, preserved so poll() after a resume
     * reports the same degradation counters as the original process. */
    std::uint64_t retriesUsed = 0;
    std::uint64_t faultRetries = 0;
    double backoffSeconds = 0.0;
    double simTimeSeconds = 0.0;
};

/** Everything a scan recovers from a manifest file. */
struct ManifestScan
{
    std::uint64_t fleetDigest = 0;
    /** (jobId, spec) in submission order. */
    std::vector<std::pair<std::uint64_t, ServeJobSpec>> submitted;
    std::map<std::uint64_t, ManifestCompletion> completed;
    std::set<std::uint64_t> cancelled;
    /** Jobs dropped by admission control (queue bound). */
    std::set<std::uint64_t> shed;
    /** Jobs failed by migration-budget exhaustion. */
    std::set<std::uint64_t> failed;
    /** Health/breaker transitions in record order; replaying them in
     * order reconstructs the fleet's health state at the crash. */
    std::vector<HealthTransition> health;
    /** Highest fleet tick recorded by any frame (clock restore). */
    std::uint64_t lastTick = 0;
    std::uint64_t cleanOffset = 0;
    bool tornTail = false;
    std::string diagnostic;
};

/**
 * Scan a manifest file.
 * @throws ManifestError on structural corruption or a bad header.
 */
ManifestScan scanManifest(const std::string &path);

/**
 * Append side; every record is fsynced before the call returns. A
 * record larger than the reader's frame cap throws ManifestError
 * before any byte is written.
 */
class ServeManifest
{
  public:
    /**
     * Truncate mode starts a fresh manifest; Append continues an
     * existing one from `offset` (recovery truncates the torn tail).
     */
    ServeManifest(const std::string &path, std::uint64_t fleet_digest,
                  DurableFile::Mode mode, std::uint64_t offset = 0);

    void appendSubmit(std::uint64_t job_id, const ServeJobSpec &spec);
    void appendCancel(std::uint64_t job_id);
    void appendComplete(std::uint64_t job_id,
                        const ManifestCompletion &completion);
    void appendShed(std::uint64_t job_id);
    void appendFailed(std::uint64_t job_id);
    void appendHealth(const HealthTransition &transition);

  private:
    void appendFrame(std::uint8_t type, const std::string &payload);

    DurableFile file_;
};

} // namespace qismet

#endif // QISMET_SERVE_MANIFEST_HPP
