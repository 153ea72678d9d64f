#include "serve/manifest.hpp"

#include <algorithm>

namespace qismet {

namespace {

constexpr char kMagic[4] = {'Q', 'S', 'V', 'M'};
constexpr std::uint64_t kHeaderSize = 24;
/** type(1) + len(4) + checksum(8). */
constexpr std::uint64_t kFrameOverhead = 13;
constexpr std::uint32_t kMaxFrameLen = 1u << 20;

constexpr std::uint8_t kFrameSubmit = 1;
constexpr std::uint8_t kFrameCancel = 2;
constexpr std::uint8_t kFrameComplete = 3;
constexpr std::uint8_t kFrameShed = 4;
constexpr std::uint8_t kFrameFailed = 5;
constexpr std::uint8_t kFrameHealth = 6;

bool
validFrameType(std::uint8_t type)
{
    return type >= kFrameSubmit && type <= kFrameHealth;
}

std::uint64_t
frameChecksum(std::uint8_t type, std::string_view payload)
{
    std::uint64_t hash = fnv1a64(&type, 1);
    return fnv1a64(payload, hash);
}

std::string
encodeHeader(std::uint64_t fleet_digest)
{
    Encoder enc;
    for (char c : kMagic)
        enc.writeU8(static_cast<std::uint8_t>(c));
    enc.writeU32(kManifestVersion);
    enc.writeU64(fleet_digest);
    const std::uint64_t checksum = fnv1a64(enc.bytes());
    enc.writeU64(checksum);
    return enc.take();
}

} // namespace

ManifestScan
scanManifest(const std::string &path)
{
    const std::string bytes = readFile(path);
    if (bytes.size() < kHeaderSize)
        throw ManifestError("manifest '" + path +
                            "' is shorter than its header");

    Decoder header(std::string_view(bytes).substr(0, kHeaderSize));
    char magic[4];
    for (char &c : magic)
        c = static_cast<char>(header.readU8());
    if (magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
        magic[2] != kMagic[2] || magic[3] != kMagic[3])
        throw ManifestError("manifest '" + path + "' has bad magic");
    const std::uint32_t version = header.readU32();
    if (version != kManifestVersion)
        throw ManifestError("manifest '" + path +
                            "' has unsupported version " +
                            std::to_string(version));
    ManifestScan result;
    result.fleetDigest = header.readU64();
    const std::uint64_t stored = header.readU64();
    if (stored != fnv1a64(std::string_view(bytes).substr(0, 16)))
        throw ManifestError("manifest '" + path +
                            "' header checksum mismatch");
    result.cleanOffset = kHeaderSize;

    std::uint64_t offset = kHeaderSize;
    const std::uint64_t size = bytes.size();
    while (offset < size) {
        const std::uint64_t rem = size - offset;
        if (rem < kFrameOverhead) {
            result.tornTail = true;
            result.diagnostic =
                "torn tail: " + std::to_string(rem) +
                " trailing bytes shorter than a frame; discarded";
            break;
        }
        Decoder dec(std::string_view(bytes).substr(
            static_cast<std::size_t>(offset),
            static_cast<std::size_t>(rem)));
        const std::uint8_t type = dec.readU8();
        if (!validFrameType(type))
            throw ManifestError("manifest '" + path +
                                "' has invalid frame type " +
                                std::to_string(type) + " at offset " +
                                std::to_string(offset));
        const std::uint32_t len = dec.readU32();
        if (len > kMaxFrameLen)
            throw ManifestError("manifest '" + path +
                                "' has implausible frame length " +
                                std::to_string(len) + " at offset " +
                                std::to_string(offset));
        const std::uint64_t frameSize = kFrameOverhead + len;
        if (frameSize > rem) {
            result.tornTail = true;
            result.diagnostic =
                "torn tail: partial frame at offset " +
                std::to_string(offset) + "; discarded";
            break;
        }
        const std::string_view payload = std::string_view(bytes).substr(
            static_cast<std::size_t>(offset) + 5, len);
        Decoder tail(std::string_view(bytes).substr(
            static_cast<std::size_t>(offset) + 5 + len, 8));
        if (tail.readU64() != frameChecksum(type, payload)) {
            if (offset + frameSize == size) {
                result.tornTail = true;
                result.diagnostic =
                    "torn tail: final frame at offset " +
                    std::to_string(offset) +
                    " failed its checksum; discarded";
                break;
            }
            throw ManifestError(
                "manifest '" + path +
                "' has a corrupt frame (checksum mismatch) at offset " +
                std::to_string(offset) +
                " with valid data after it — refusing to skip");
        }

        try {
            Decoder body(payload);
            if (type == kFrameSubmit) {
                const std::uint64_t jobId = body.readU64();
                ServeJobSpec spec = ServeJobSpec::decode(body);
                result.submitted.emplace_back(jobId, std::move(spec));
            }
            else if (type == kFrameCancel) {
                result.cancelled.insert(body.readU64());
            }
            else if (type == kFrameShed) {
                result.shed.insert(body.readU64());
            }
            else if (type == kFrameFailed) {
                result.failed.insert(body.readU64());
            }
            else if (type == kFrameHealth) {
                HealthTransition t;
                t.backendId =
                    static_cast<std::size_t>(body.readU64());
                t.tick = body.readU64();
                t.health = static_cast<BackendHealth>(body.readU8());
                t.breaker = static_cast<BreakerState>(body.readU8());
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
        offset += frameSize;
        result.cleanOffset = offset;
    }
    return result;
}

ServeManifest::ServeManifest(const std::string &path,
                             std::uint64_t fleet_digest,
                             DurableFile::Mode mode, std::uint64_t offset)
    : file_(path, mode)
{
    if (mode == DurableFile::Mode::Truncate) {
        file_.append(encodeHeader(fleet_digest));
        file_.sync();
    }
    else {
        file_.truncateTo(offset);
        file_.sync();
    }
}

void
ServeManifest::appendFrame(std::uint8_t type, const std::string &payload)
{
    if (payload.size() > kMaxFrameLen)
        // scanManifest rejects such a frame even at the tail, so writing
        // it would leave a manifest the scheduler can never recover.
        throw ManifestError("manifest '" + file_.path() + "': frame of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFrameLen) +
                            "-byte frame cap; nothing written");
    Encoder enc;
    enc.writeU8(type);
    enc.writeU32(static_cast<std::uint32_t>(payload.size()));
    std::string frame = enc.take();
    frame += payload;
    Encoder sum;
    sum.writeU64(frameChecksum(type, payload));
    frame += sum.bytes();
    file_.append(frame);
    file_.sync();
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
