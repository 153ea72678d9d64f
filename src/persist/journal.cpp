#include "persist/journal.hpp"

#include "fault/crash_point.hpp"

namespace qismet {

namespace {

constexpr char kMagic[4] = {'Q', 'J', 'N', 'L'};

/** type(1) + len(4) + checksum(8): smallest possible complete frame. */
constexpr std::uint64_t kFrameOverhead = 13;

/** Sanity cap on a single frame; real frames are a few hundred bytes. */
constexpr std::uint32_t kMaxFrameLen = 1u << 20;

bool
validFrameType(std::uint8_t type)
{
    return type == static_cast<std::uint8_t>(JournalFrameType::Job) ||
           type ==
               static_cast<std::uint8_t>(JournalFrameType::Iteration);
}

std::uint64_t
frameChecksum(std::uint8_t type, std::string_view payload)
{
    std::uint64_t hash = fnv1a64(&type, 1);
    return fnv1a64(payload, hash);
}

} // namespace

void
JournalJobRecord::encode(Encoder &enc) const
{
    enc.writeU64(jobIndex);
    enc.writeI64(evalIndex);
    enc.writeI64(retryIndex);
    enc.writeF64(transientIntensity);
    enc.writeF64(eMeasured);
    enc.writeBool(accepted);
    enc.writeU8(status);
    enc.writeBool(carriedForward);
    enc.writeF64(shotFraction);
    enc.writeF64(transientEstimate);
    enc.writeBool(hasReference);
    enc.writeF64(eReference);
    enc.writeVecF64(point);
}

JournalJobRecord
JournalJobRecord::decode(Decoder &dec)
{
    JournalJobRecord rec;
    rec.jobIndex = dec.readU64();
    rec.evalIndex = dec.readI64();
    rec.retryIndex = dec.readI64();
    rec.transientIntensity = dec.readF64();
    rec.eMeasured = dec.readF64();
    rec.accepted = dec.readBool();
    rec.status = dec.readU8();
    rec.carriedForward = dec.readBool();
    rec.shotFraction = dec.readF64();
    rec.transientEstimate = dec.readF64();
    rec.hasReference = dec.readBool();
    rec.eReference = dec.readF64();
    rec.point = dec.readVecF64();
    return rec;
}

void
JournalIterationRecord::encode(Encoder &enc) const
{
    enc.writeU64(iteration);
    enc.writeF64(eReported);
    enc.writeBool(moveAccepted);
}

JournalIterationRecord
JournalIterationRecord::decode(Decoder &dec)
{
    JournalIterationRecord rec;
    rec.iteration = dec.readU64();
    rec.eReported = dec.readF64();
    rec.moveAccepted = dec.readBool();
    return rec;
}

std::string
encodeJournalHeader(std::uint64_t config_digest)
{
    Encoder enc;
    enc.writeU8(static_cast<std::uint8_t>(kMagic[0]));
    enc.writeU8(static_cast<std::uint8_t>(kMagic[1]));
    enc.writeU8(static_cast<std::uint8_t>(kMagic[2]));
    enc.writeU8(static_cast<std::uint8_t>(kMagic[3]));
    enc.writeU32(kJournalVersion);
    enc.writeU64(config_digest);
    const std::uint64_t checksum = fnv1a64(enc.bytes());
    enc.writeU64(checksum);
    return enc.take();
}

JournalScanResult
scanJournal(const std::string &path)
{
    const std::string bytes = readFile(path);
    if (bytes.size() < kJournalHeaderSize)
        throw JournalError(
            "journal '" + path + "' is shorter than its header (" +
            std::to_string(bytes.size()) + " bytes) — not a journal");

    Decoder header(std::string_view(bytes).substr(0, kJournalHeaderSize));
    char magic[4];
    for (char &c : magic)
        c = static_cast<char>(header.readU8());
    if (magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
        magic[2] != kMagic[2] || magic[3] != kMagic[3])
        throw JournalError("journal '" + path + "' has bad magic");
    const std::uint32_t version = header.readU32();
    if (version != kJournalVersion)
        throw JournalError("journal '" + path +
                           "' has unsupported version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kJournalVersion) + ")");
    const std::uint64_t digest = header.readU64();
    const std::uint64_t stored = header.readU64();
    const std::uint64_t expect =
        fnv1a64(std::string_view(bytes).substr(0, 16));
    if (stored != expect)
        throw JournalError("journal '" + path +
                           "' header checksum mismatch");

    JournalScanResult result;
    result.configDigest = digest;
    result.cleanOffset = kJournalHeaderSize;

    std::uint64_t offset = kJournalHeaderSize;
    const std::uint64_t size = bytes.size();
    while (offset < size) {
        const std::uint64_t rem = size - offset;
        if (rem < kFrameOverhead) {
            result.tornTail = true;
            result.droppedBytes = rem;
            result.diagnostic =
                "torn tail: " + std::to_string(rem) +
                " trailing bytes are shorter than a frame; discarded";
            break;
        }
        Decoder dec(std::string_view(bytes).substr(
            static_cast<std::size_t>(offset),
            static_cast<std::size_t>(rem)));
        const std::uint8_t type = dec.readU8();
        if (!validFrameType(type))
            // A torn append writes a byte-prefix of a valid frame, so
            // a present-but-unknown type byte means corruption.
            throw JournalError("journal '" + path +
                               "' has invalid frame type " +
                               std::to_string(type) + " at offset " +
                               std::to_string(offset));
        const std::uint32_t len = dec.readU32();
        if (len > kMaxFrameLen)
            throw JournalError("journal '" + path +
                               "' has implausible frame length " +
                               std::to_string(len) + " at offset " +
                               std::to_string(offset));
        const std::uint64_t frameSize = kFrameOverhead + len;
        if (frameSize > rem) {
            result.tornTail = true;
            result.droppedBytes = rem;
            result.diagnostic =
                "torn tail: frame at offset " + std::to_string(offset) +
                " needs " + std::to_string(frameSize) +
                " bytes but only " + std::to_string(rem) +
                " remain; discarded";
            break;
        }
        const std::string_view payload =
            std::string_view(bytes).substr(
                static_cast<std::size_t>(offset) + 5, len);
        Decoder tail(std::string_view(bytes).substr(
            static_cast<std::size_t>(offset) + 5 + len, 8));
        const std::uint64_t storedSum = tail.readU64();
        if (storedSum != frameChecksum(type, payload)) {
            if (offset + frameSize == size) {
                // Checksum-bad final frame: a torn append that stopped
                // inside the checksum bytes themselves.
                result.tornTail = true;
                result.droppedBytes = rem;
                result.diagnostic =
                    "torn tail: final frame at offset " +
                    std::to_string(offset) +
                    " failed its checksum; discarded";
                break;
            }
            throw JournalError(
                "journal '" + path +
                "' has a corrupt frame (checksum mismatch) at offset " +
                std::to_string(offset) +
                " with valid data after it — refusing to skip");
        }
        JournalFrame frame;
        frame.type = static_cast<JournalFrameType>(type);
        frame.payload = std::string(payload);
        frame.endOffset = offset + frameSize;
        result.frames.push_back(std::move(frame));
        offset += frameSize;
        result.cleanOffset = offset;
    }
    return result;
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t config_digest,
                             DurableFile::Mode mode, std::uint64_t offset,
                             std::uint64_t frames)
    : file_(path, mode), frames_(frames)
{
    if (mode == DurableFile::Mode::Truncate) {
        file_.append(encodeJournalHeader(config_digest));
        file_.sync();
        frames_ = 0;
    }
    else {
        // Resume: drop everything past the recovered clean prefix
        // (snapshot offset), including any torn tail.
        file_.truncateTo(offset);
        file_.sync();
    }
}

void
JournalWriter::appendFrame(JournalFrameType type,
                           const std::string &payload)
{
    if (payload.size() > kMaxFrameLen)
        // scanJournal rejects such a frame even at the tail, so writing
        // it would leave a journal that can never be resumed.
        throw JournalError("journal '" + file_.path() + "': frame of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the " +
                           std::to_string(kMaxFrameLen) +
                           "-byte frame cap; nothing written");
    Encoder enc;
    enc.writeU8(static_cast<std::uint8_t>(type));
    enc.writeU32(static_cast<std::uint32_t>(payload.size()));
    std::string frame = enc.take();
    frame += payload;
    Encoder sum;
    sum.writeU64(
        frameChecksum(static_cast<std::uint8_t>(type), payload));
    frame += sum.bytes();

    if (CrashPoints::fires(kCrashJournalTornWrite)) {
        // Die mid-append: persist only a prefix of the frame, exactly
        // what a crash between write() calls would leave behind.
        file_.append(
            std::string_view(frame).substr(0, frame.size() / 2));
        file_.sync();
        CrashPoints::crash(kCrashJournalTornWrite);
    }

    file_.append(frame);
    ++frames_;
}

void
JournalWriter::appendJob(const JournalJobRecord &record)
{
    Encoder enc;
    record.encode(enc);
    appendFrame(JournalFrameType::Job, enc.bytes());
}

void
JournalWriter::appendIteration(const JournalIterationRecord &record)
{
    Encoder enc;
    record.encode(enc);
    appendFrame(JournalFrameType::Iteration, enc.bytes());
}

} // namespace qismet
