/**
 * @file
 * Full run snapshot: everything VqeDriver needs to continue a run
 * bit-identically from an iteration boundary.
 *
 * The snapshot pairs with the journal: it records *how many journal
 * frames* (and bytes) were durable when it was taken, so recovery can
 * replay exactly that prefix to rebuild the result history and then
 * truncate the journal to the snapshot's offset before appending.
 *
 * Component state that the driver does not own — tuning-policy
 * calibration (thresholds, transient-estimator history, Kalman state)
 * and optimizer internals (SPSA perturbation vectors, Hessian
 * accumulators) — is carried as opaque blobs produced by each
 * component's saveState(). The RNG positions are explicit: the
 * serially-advanced optimizer stream is saved in full, while the job
 * executor and fault injector need only counters because their root
 * generators are never advanced (all per-job randomness is a
 * counter-based splitAt of an immutable root — the property that makes
 * resumed runs provably bit-identical at any thread count).
 *
 * On disk the snapshot is a framed log (persist/framed_log.hpp,
 * DESIGN.md §10) with magic "QSNP", the config digest in its header and
 * exactly one frame holding the encoded RunSnapshot, written atomically
 * (temp -> fsync -> rename). A torn or extra frame is corruption.
 */

#ifndef QISMET_PERSIST_SNAPSHOT_HPP
#define QISMET_PERSIST_SNAPSHOT_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qismet {

/** Raised when a snapshot file is unreadable or corrupt. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Snapshot format version; bump on any field change. Version 1 was a
 *  bespoke container; version 2 is a one-frame framed log. */
inline constexpr std::uint32_t kSnapshotVersion = 2;

/** Serializable state of one run at an optimizer-iteration boundary. */
struct RunSnapshot
{
    std::uint64_t configDigest = 0;

    // --- journal coupling -------------------------------------------
    std::uint64_t journalFrames = 0; ///< durable frames at capture time
    std::uint64_t journalOffset = 0; ///< durable bytes at capture time

    // --- driver loop state ------------------------------------------
    std::uint64_t iteration = 0; ///< completed optimizer iterations
    std::int64_t evalIndex = 0;
    std::vector<double> theta;
    std::vector<double> prevPoint;
    bool havePrev = false;
    double ePrev = 0.0;
    bool haveIterPrev = false;
    double eIterPrev = 0.0;

    // --- result accumulators ----------------------------------------
    std::uint64_t jobsUsed = 0;
    std::uint64_t retriesUsed = 0;
    std::uint64_t rejections = 0;
    std::uint64_t faultsSeen = 0;
    std::uint64_t faultRetries = 0;
    std::uint64_t evalsCarriedForward = 0;
    double simTimeSeconds = 0.0;
    double backoffSeconds = 0.0;

    // --- stream positions -------------------------------------------
    RngState optimizerRng;               ///< serially-advanced stream
    std::uint64_t executorJobs = 0;      ///< fault-schedule cursor
    std::uint64_t executorCircuits = 0;

    // --- opaque component state -------------------------------------
    std::string policyState;    ///< TuningPolicy::saveState blob
    std::string optimizerState; ///< StochasticOptimizer::saveState blob

    /** Serialize to the on-disk payload. */
    std::string encode() const;

    /** @throws SnapshotError on truncated or malformed payload. */
    static RunSnapshot decode(const std::string &payload);
};

/** Atomically write a snapshot file. */
void saveSnapshotFile(const std::string &path,
                      const RunSnapshot &snapshot);

/**
 * Load and validate a snapshot file.
 * @throws SnapshotError when missing, truncated, checksum-bad, of
 *         another version, holding other than exactly one frame, or
 *         when the header's digest is not the payload's.
 */
RunSnapshot loadSnapshotFile(const std::string &path);

} // namespace qismet

#endif // QISMET_PERSIST_SNAPSHOT_HPP
