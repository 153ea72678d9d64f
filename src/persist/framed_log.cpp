#include "persist/framed_log.hpp"

#include "common/serial.hpp"
#include "fault/crash_point.hpp"

namespace qismet {

namespace {

/** type(1) + len(4) + checksum(8): smallest possible complete frame. */
constexpr std::size_t kFrameOverhead = 13;

[[noreturn]] void
fail(const FramedLogSpec &spec, const std::string &path,
     const std::string &what)
{
    std::rethrow_exception(
        spec.error(std::string(spec.noun) + " '" + path + "'" + what));
}

std::uint64_t
frameChecksum(std::uint8_t type, std::string_view payload)
{
    return fnv1a64(payload, fnv1a64(&type, 1));
}

} // namespace

std::string
encodeFramedLogHeader(const FramedLogSpec &spec, std::uint64_t digest)
{
    Encoder enc;
    for (const char c : spec.magic)
        enc.writeU8(static_cast<std::uint8_t>(c));
    enc.writeU32(spec.version);
    enc.writeU64(digest);
    enc.writeU64(fnv1a64(enc.bytes()));
    return enc.take();
}

std::string
encodeFrame(const FramedLogSpec &spec, const std::string &path,
            std::uint8_t type, std::string_view payload)
{
    if (payload.size() > spec.maxPayload)
        // The reader rejects such a frame even at the tail, so writing
        // it would leave a file that can never be recovered.
        fail(spec, path,
             ": frame of " + std::to_string(payload.size()) +
                 " bytes exceeds the " + std::to_string(spec.maxPayload) +
                 "-byte frame cap; nothing written");
    Encoder enc;
    enc.writeU8(type);
    enc.writeU32(static_cast<std::uint32_t>(payload.size()));
    std::string frame = enc.take();
    frame += payload;
    Encoder sum;
    sum.writeU64(frameChecksum(type, payload));
    frame += sum.bytes();
    return frame;
}

FramedLogScan
scanFramedLog(const FramedLogSpec &spec, const std::string &path)
{
    FramedLogScan scan;
    scan.bytes = std::make_unique<const std::string>(readFile(path));
    const std::string_view bytes(*scan.bytes);
    if (bytes.size() < kFramedLogHeaderSize)
        fail(spec, path,
             " is shorter than its header (" +
                 std::to_string(bytes.size()) + " bytes)");
    if (bytes.substr(0, 4) != spec.magic)
        fail(spec, path, " has bad magic");
    Decoder header(bytes.substr(4, kFramedLogHeaderSize - 4));
    const std::uint32_t version = header.readU32();
    if (version != spec.version)
        fail(spec, path,
             " has unsupported version " + std::to_string(version) +
                 " (expected " + std::to_string(spec.version) + ")");
    scan.digest = header.readU64();
    if (header.readU64() != fnv1a64(bytes.substr(0, 16)))
        fail(spec, path, " header checksum mismatch");

    scan.cleanOffset = kFramedLogHeaderSize;
    while (scan.cleanOffset < bytes.size()) {
        const std::size_t offset = scan.cleanOffset;
        const std::size_t rem = bytes.size() - offset;
        auto at = [offset] { return " at offset " + std::to_string(offset); };
        if (rem < kFrameOverhead) {
            scan.tornReason = std::to_string(rem) + " trailing bytes" +
                              at() + " are shorter than a frame";
            break;
        }
        Decoder dec(bytes.substr(offset, 5));
        const std::uint8_t type = dec.readU8();
        if (type == 0 || type > spec.frameTypes)
            // A torn append writes a byte-prefix of a valid frame, so
            // a present-but-unknown type byte means corruption.
            fail(spec, path,
                 " has invalid frame type " + std::to_string(type) + at());
        const std::uint32_t len = dec.readU32();
        if (len > spec.maxPayload)
            fail(spec, path,
                 " has implausible frame length " + std::to_string(len) +
                     at());
        const std::size_t frameSize = kFrameOverhead + len;
        if (frameSize > rem) {
            scan.tornReason = "frame" + at() + " needs " +
                              std::to_string(frameSize) + " bytes but only " +
                              std::to_string(rem) + " remain";
            break;
        }
        const std::string_view payload = bytes.substr(offset + 5, len);
        Decoder sum(bytes.substr(offset + 5 + len, 8));
        if (sum.readU64() != frameChecksum(type, payload)) {
            if (frameSize == rem) {
                // Checksum-bad final frame: a torn append that stopped
                // inside the checksum bytes themselves.
                scan.tornReason = "final frame" + at() + " failed its checksum";
                break;
            }
            fail(spec, path,
                 " has a corrupt frame (checksum mismatch)" + at() +
                     " with valid data after it — refusing to skip");
        }
        scan.cleanOffset += frameSize;
        scan.frames.push_back({type, payload, scan.cleanOffset});
    }
    // Every break above leaves the tail from cleanOffset torn.
    scan.tornTail = !scan.tornReason.empty();
    scan.droppedBytes = bytes.size() - scan.cleanOffset;
    return scan;
}

FramedLogWriter::FramedLogWriter(const FramedLogSpec &spec,
                                 const std::string &path,
                                 std::uint64_t digest,
                                 DurableFile::Mode mode,
                                 std::uint64_t offset)
    : spec_(spec), file_(path, mode)
{
    if (mode == DurableFile::Mode::Truncate)
        file_.append(encodeFramedLogHeader(spec_, digest));
    else
        file_.truncateTo(offset);
    file_.sync();
}

void
FramedLogWriter::append(std::uint8_t type, std::string_view payload)
{
    const std::string frame =
        encodeFrame(spec_, file_.path(), type, payload);
    if (spec_.tornWritePoint != nullptr &&
        CrashPoints::fires(spec_.tornWritePoint)) {
        // Die mid-append: persist only a prefix of the frame, exactly
        // what a crash between write() calls would leave behind.
        file_.append(std::string_view(frame).substr(0, frame.size() / 2));
        file_.sync();
        CrashPoints::crash(spec_.tornWritePoint);
    }
    file_.append(frame);
}

} // namespace qismet
