#include "serve/manifest.hpp"

#include <algorithm>

namespace qismet {

namespace {

constexpr std::uint8_t kFrameSubmit = 1;
constexpr std::uint8_t kFrameCancel = 2;
constexpr std::uint8_t kFrameComplete = 3;
constexpr std::uint8_t kFrameShed = 4;
constexpr std::uint8_t kFrameFailed = 5;
constexpr std::uint8_t kFrameHealth = 6;

constexpr FramedLogSpec kManifestLog{
    .noun = "manifest",
    .magic = "QSVM",
    .version = kManifestVersion,
    .frameTypes = kFrameHealth,
    .error = &framedLogError<ManifestError>,
};

} // namespace

ManifestScan
scanManifest(const std::string &path)
{
    const FramedLogScan scan = scanFramedLog(kManifestLog, path);
    ManifestScan result;
    result.fleetDigest = scan.digest;
    result.cleanOffset = scan.cleanOffset;
    result.tornTail = scan.tornTail;
    result.diagnostic = scan.diagnostic();

    std::uint64_t offset = kFramedLogHeaderSize;
    for (const FramedLogFrame &frame : scan.frames) {
        try {
            Decoder body(frame.payload);
            if (frame.type == kFrameSubmit) {
                const std::uint64_t jobId = body.readU64();
                ServeJobSpec spec = ServeJobSpec::decode(body);
                result.submitted.emplace_back(jobId, std::move(spec));
            }
            else if (frame.type == kFrameCancel) {
                result.cancelled.insert(body.readU64());
            }
            else if (frame.type == kFrameShed) {
                result.shed.insert(body.readU64());
            }
            else if (frame.type == kFrameFailed) {
                result.failed.insert(body.readU64());
            }
            else if (frame.type == kFrameHealth) {
                HealthTransition t;
                t.backendId =
                    static_cast<std::size_t>(body.readU64());
                t.tick = body.readU64();
                t.health = checkedEnum("health", body.readU8(),
                                       BackendHealth::Quarantined);
                t.breaker = checkedEnum("breaker", body.readU8(),
                                        BreakerState::HalfOpen);
                t.cooldownTicks = body.readU64();
                t.breakerOpenedTick = body.readU64();
                t.consecutiveFaults = body.readU32();
                t.consecutiveSuccesses = body.readU32();
                result.lastTick = std::max(result.lastTick, t.tick);
                result.health.push_back(t);
            }
            else {
                const std::uint64_t jobId = body.readU64();
                ManifestCompletion c;
                c.trajectoryDigest = body.readString();
                c.finalEstimate = body.readF64();
                c.jobsUsed = body.readU64();
                c.tick = body.readU64();
                c.deadlineExpired = body.readBool();
                c.retriesUsed = body.readU64();
                c.faultRetries = body.readU64();
                c.backoffSeconds = body.readF64();
                c.simTimeSeconds = body.readF64();
                result.lastTick = std::max(result.lastTick, c.tick);
                result.completed.emplace(jobId, std::move(c));
            }
        }
        catch (const SerialError &err) {
            throw ManifestError("manifest '" + path +
                                "' has a checksum-valid but "
                                "undecodable frame at offset " +
                                std::to_string(offset) + ": " +
                                err.what());
        }
        offset = frame.endOffset;
    }
    return result;
}

ServeManifest::ServeManifest(const std::string &path,
                             std::uint64_t fleet_digest,
                             DurableFile::Mode mode, std::uint64_t offset)
    : log_(kManifestLog, path, fleet_digest, mode, offset)
{
}

void
ServeManifest::appendFrame(std::uint8_t type, const std::string &payload)
{
    log_.append(encodeFrame(kManifestLog, log_.path(), type, payload));
    log_.sync();
}

void
ServeManifest::appendSubmit(std::uint64_t job_id,
                            const ServeJobSpec &spec)
{
    Encoder enc;
    enc.writeU64(job_id);
    spec.encode(enc);
    appendFrame(kFrameSubmit, enc.bytes());
}

void
ServeManifest::appendCancel(std::uint64_t job_id)
{
    Encoder enc;
    enc.writeU64(job_id);
    appendFrame(kFrameCancel, enc.bytes());
}

void
ServeManifest::appendComplete(std::uint64_t job_id,
                              const ManifestCompletion &completion)
{
    Encoder enc;
    enc.writeU64(job_id);
    enc.writeString(completion.trajectoryDigest);
    enc.writeF64(completion.finalEstimate);
    enc.writeU64(completion.jobsUsed);
    enc.writeU64(completion.tick);
    enc.writeBool(completion.deadlineExpired);
    enc.writeU64(completion.retriesUsed);
    enc.writeU64(completion.faultRetries);
    enc.writeF64(completion.backoffSeconds);
    enc.writeF64(completion.simTimeSeconds);
    appendFrame(kFrameComplete, enc.bytes());
}

void
ServeManifest::appendShed(std::uint64_t job_id)
{
    Encoder enc;
    enc.writeU64(job_id);
    appendFrame(kFrameShed, enc.bytes());
}

void
ServeManifest::appendFailed(std::uint64_t job_id)
{
    Encoder enc;
    enc.writeU64(job_id);
    appendFrame(kFrameFailed, enc.bytes());
}

void
ServeManifest::appendHealth(const HealthTransition &transition)
{
    Encoder enc;
    enc.writeU64(static_cast<std::uint64_t>(transition.backendId));
    enc.writeU64(transition.tick);
    enc.writeU8(static_cast<std::uint8_t>(transition.health));
    enc.writeU8(static_cast<std::uint8_t>(transition.breaker));
    enc.writeU64(transition.cooldownTicks);
    enc.writeU64(transition.breakerOpenedTick);
    enc.writeU32(transition.consecutiveFaults);
    enc.writeU32(transition.consecutiveSuccesses);
    appendFrame(kFrameHealth, enc.bytes());
}

} // namespace qismet
