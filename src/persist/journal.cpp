#include "persist/journal.hpp"

#include "fault/crash_point.hpp"

namespace qismet {

namespace {

constexpr FramedLogSpec kJournalLog{
    .noun = "journal",
    .magic = "QJNL",
    .version = kJournalVersion,
    .frameTypes = 2, // Job, Iteration
    .error = &framedLogError<JournalError>,
    .tornWritePoint = kCrashJournalTornWrite,
};

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

JournalScanResult
scanJournal(const std::string &path)
{
    const FramedLogScan scan = scanFramedLog(kJournalLog, path);
    // A JournalFrame outlives the scan, so here the payloads are copied.
    std::vector<JournalFrame> frames;
    frames.reserve(scan.frames.size());
    for (const FramedLogFrame &frame : scan.frames)
        frames.push_back({static_cast<JournalFrameType>(frame.type),
                          std::string(frame.payload), frame.endOffset});
    return {.configDigest = scan.digest,
            .frames = std::move(frames),
            .cleanOffset = scan.cleanOffset,
            .tornTail = scan.tornTail,
            .droppedBytes = scan.droppedBytes,
            .diagnostic = scan.diagnostic()};
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t config_digest,
                             DurableFile::Mode mode, std::uint64_t offset,
                             std::uint64_t frames)
    : log_(kJournalLog, path, config_digest, mode, offset),
      frames_(mode == DurableFile::Mode::Truncate ? 0 : frames)
{
}

void
JournalWriter::appendJob(const JournalJobRecord &record)
{
    std::string frame;
    encodeJob(record, frame);
    log_.appendFrame(frame);
    ++frames_;
}

void
JournalWriter::appendIteration(const JournalIterationRecord &record)
{
    std::string frame;
    encodeIteration(record, frame);
    log_.appendFrame(frame);
    ++frames_;
}

void
JournalWriter::encodeJob(const JournalJobRecord &record,
                         std::string &frames) const
{
    encodeFrameInto(kJournalLog, log_.path(),
                    static_cast<std::uint8_t>(JournalFrameType::Job), record,
                    frames);
}

void
JournalWriter::encodeIteration(const JournalIterationRecord &record,
                               std::string &frames) const
{
    encodeFrameInto(kJournalLog, log_.path(),
                    static_cast<std::uint8_t>(JournalFrameType::Iteration),
                    record, frames);
}

void
JournalWriter::appendEncoded(std::string_view frames, std::uint64_t count)
{
    log_.appendEncoded(frames);
    frames_ += count;
}

} // namespace qismet
