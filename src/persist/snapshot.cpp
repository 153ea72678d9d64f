#include "persist/snapshot.hpp"

#include "common/serial.hpp"
#include "fault/crash_point.hpp"

namespace qismet {

namespace {

constexpr FramedLogSpec kSnapshotLog{
    .noun = "snapshot",
    .magic = "QSNP",
    .version = kSnapshotVersion,
    .frameTypes = 1, // one RunSnapshot per frame
    .error = &framedLogError<SnapshotError>,
    .tornWritePoint = kCrashSnapshotTornWrite,
};

constexpr std::uint8_t kSnapshotFrame = 1;

void
encodeRng(Encoder &enc, const RngState &state)
{
    for (const std::uint64_t word : state.engine)
        enc.writeU64(word);
    enc.writeBool(state.hasSpareNormal);
    enc.writeF64(state.spareNormal);
}

RngState
decodeRng(Decoder &dec)
{
    RngState state;
    for (std::uint64_t &word : state.engine)
        word = dec.readU64();
    state.hasSpareNormal = dec.readBool();
    state.spareNormal = dec.readF64();
    return state;
}

} // namespace

std::string
RunSnapshot::encode() const
{
    Encoder enc;
    encode(enc);
    return enc.take();
}

void
RunSnapshot::encode(Encoder &enc) const
{
    enc.writeU64(configDigest);
    enc.writeU64(journalFrames);
    enc.writeU64(journalOffset);
    enc.writeU64(iteration);
    enc.writeI64(evalIndex);
    enc.writeVecF64(theta);
    enc.writeVecF64(prevPoint);
    enc.writeBool(havePrev);
    enc.writeF64(ePrev);
    enc.writeBool(haveIterPrev);
    enc.writeF64(eIterPrev);
    enc.writeU64(jobsUsed);
    enc.writeU64(retriesUsed);
    enc.writeU64(rejections);
    enc.writeU64(faultsSeen);
    enc.writeU64(faultRetries);
    enc.writeU64(evalsCarriedForward);
    enc.writeF64(simTimeSeconds);
    enc.writeF64(backoffSeconds);
    encodeRng(enc, optimizerRng);
    enc.writeU64(executorJobs);
    enc.writeU64(executorCircuits);
    enc.writeString(policyState);
    enc.writeString(optimizerState);
}

RunSnapshot
RunSnapshot::decode(std::string_view payload)
{
    try {
        Decoder dec(payload);
        RunSnapshot snap;
        snap.configDigest = dec.readU64();
        snap.journalFrames = dec.readU64();
        snap.journalOffset = dec.readU64();
        snap.iteration = dec.readU64();
        snap.evalIndex = dec.readI64();
        snap.theta = dec.readVecF64();
        snap.prevPoint = dec.readVecF64();
        snap.havePrev = dec.readBool();
        snap.ePrev = dec.readF64();
        snap.haveIterPrev = dec.readBool();
        snap.eIterPrev = dec.readF64();
        snap.jobsUsed = dec.readU64();
        snap.retriesUsed = dec.readU64();
        snap.rejections = dec.readU64();
        snap.faultsSeen = dec.readU64();
        snap.faultRetries = dec.readU64();
        snap.evalsCarriedForward = dec.readU64();
        snap.simTimeSeconds = dec.readF64();
        snap.backoffSeconds = dec.readF64();
        snap.optimizerRng = decodeRng(dec);
        snap.executorJobs = dec.readU64();
        snap.executorCircuits = dec.readU64();
        snap.policyState = dec.readString();
        snap.optimizerState = dec.readString();
        if (!dec.atEnd())
            throw SnapshotError("snapshot payload has " +
                                std::to_string(dec.remaining()) +
                                " trailing bytes");
        return snap;
    }
    catch (const SerialError &err) {
        throw SnapshotError(std::string("malformed snapshot payload: ") +
                            err.what());
    }
}

SnapshotLogScan
scanSnapshotLog(const std::string &path)
{
    FramedLogScan scan;
    try {
        scan = scanFramedLog(kSnapshotLog, path);
    }
    catch (const FileError &err) {
        throw SnapshotError(std::string("cannot read snapshot: ") +
                            err.what());
    }
    SnapshotLogScan out;
    out.frames = scan.frames.size();
    out.cleanOffset = scan.cleanOffset;
    out.tornTail = scan.tornTail;
    out.diagnostic = scan.diagnostic();
    if (scan.frames.empty())
        return out;
    // Every frame is checksummed; only the latest is ever resumed from,
    // so only it is decoded.
    out.latest = RunSnapshot::decode(scan.frames.back().payload);
    if (out.latest->configDigest != scan.digest)
        throw SnapshotError("snapshot '" + path +
                            "' header digest disagrees with its payload's "
                            "config digest");
    return out;
}

RunSnapshot
loadSnapshotFile(const std::string &path)
{
    SnapshotLogScan scan = scanSnapshotLog(path);
    if (!scan.latest)
        throw SnapshotError("snapshot '" + path +
                            "' holds no complete snapshot" +
                            (scan.tornTail ? " (" + scan.diagnostic + ")"
                                           : std::string()));
    return std::move(*scan.latest);
}

SnapshotWriter::SnapshotWriter(const std::string &path,
                               std::uint64_t config_digest,
                               DurableFile::Mode mode, std::uint64_t offset)
    : log_(kSnapshotLog, path, config_digest, mode, offset)
{
}

void
SnapshotWriter::append(const RunSnapshot &snapshot)
{
    std::string frame;
    encode(snapshot, frame);
    log_.appendFrame(frame);
}

void
SnapshotWriter::encode(const RunSnapshot &snapshot, std::string &frame) const
{
    encodeFrameInto(kSnapshotLog, log_.path(), kSnapshotFrame, snapshot,
                    frame);
}

} // namespace qismet
