/**
 * @file
 * The framed log: the one container behind every durable file — the
 * run journal (journal.hpp), the run snapshot (snapshot.hpp) and the
 * serve manifest (serve/manifest.hpp). Each of those supplies a
 * FramedLogSpec and its payload codecs; this module owns the bytes
 * around them (DESIGN.md §10):
 *
 *     header := magic[4] | u32 version | u64 digest
 *               | u64 fnv1a(preceding 16 bytes)                 (24 B)
 *     frame  := u8 type | u32 payloadLen | payload
 *               | u64 fnv1a(type byte + payload)
 *
 * All integers are little-endian. The reader fails closed and recovers
 * only what is provably a crash artifact: a frame that runs past
 * end-of-file, a trailing fragment shorter than a minimal frame, or a
 * checksum-bad frame that ends exactly at EOF is a torn tail, dropped
 * and reported; any other damage (bad header, unknown frame type, a
 * length over the spec's cap, a checksum mismatch with data after it)
 * throws the spec's error. Frames are encoded first (encodeFrame,
 * encodeFrameInto) and reach the file only through
 * FramedLogWriter::append(); the encoder refuses a payload over the cap,
 * so no file ever holds a frame its reader rejects.
 */

#ifndef QISMET_PERSIST_FRAMED_LOG_HPP
#define QISMET_PERSIST_FRAMED_LOG_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/serial.hpp"

namespace qismet {

/** Serialized size of the fixed header. */
inline constexpr std::uint64_t kFramedLogHeaderSize = 24;

/** Default frame cap (1 MiB): the largest payload one frame may carry. */
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/** What one kind of framed-log file supplies. */
struct FramedLogSpec
{
    std::string_view noun;  ///< leads every error message ("journal")
    std::string_view magic; ///< the four header bytes ("QJNL")
    std::uint32_t version = 0;
    std::uint8_t frameTypes = 0; ///< valid frame types are 1..frameTypes
    std::uint32_t maxPayload = kMaxFramePayload; ///< this kind's frame cap
    /** Wraps a message in the kind's own error type. */
    std::exception_ptr (*error)(const std::string &message) = nullptr;
};

/** FramedLogSpec::error for an error type built from a message. */
template <typename Error>
std::exception_ptr
framedLogError(const std::string &message)
{
    return std::make_exception_ptr(Error(message));
}

/** One checksum-valid frame. */
struct FramedLogFrame
{
    std::uint8_t type = 0;
    /** A view into the scan's `bytes`: copy it to keep it. */
    std::string_view payload;
    std::uint64_t endOffset = 0; ///< byte offset just past this frame
};

/** Result of scanning a framed-log file. */
struct FramedLogScan
{
    std::uint64_t digest = 0;
    /** The whole file as read; every frame's payload points into it. */
    std::unique_ptr<const std::string> bytes;
    std::vector<FramedLogFrame> frames;
    std::uint64_t cleanOffset = 0; ///< offset after the last valid frame
    bool tornTail = false;
    std::uint64_t droppedBytes = 0;
    std::string tornReason; ///< why the tail was dropped, if it was

    /** Human-readable torn-tail note for the recovery log, or "". */
    std::string diagnostic() const
    {
        return tornTail ? "torn tail: " + tornReason + "; discarded" : "";
    }
};

std::string encodeFramedLogHeader(const FramedLogSpec &spec,
                                  std::uint64_t digest);

/** @throws the spec's error when the payload is over the cap. */
std::string encodeFrame(const FramedLogSpec &spec, const std::string &path,
                        std::uint8_t type, std::string_view payload);

/** Start a frame at the end of `out`: its type byte and a length that
 *  endFrame fills in. Returns the frame's offset in `out`. */
std::size_t beginFrame(std::uint8_t type, std::string &out);

/**
 * Finish the frame begun at `start` once its payload follows it: fill in
 * the length and append the checksum. @throws the spec's error, with
 * `out` cut back to `start`, when the payload is over the cap.
 */
void endFrame(const FramedLogSpec &spec, const std::string &path,
              std::size_t start, std::string &out);

/**
 * Encode one frame onto the end of `out`: the bytes encodeFrame returns
 * for the payload `record.encode(Encoder &)` writes, built in `out`'s
 * own storage, so a buffer with room allocates nothing. @throws the
 * spec's error, leaving `out` as it was, when the payload is over the
 * cap.
 */
template <typename Record>
void
encodeFrameInto(const FramedLogSpec &spec, const std::string &path,
                std::uint8_t type, const Record &record, std::string &out)
{
    const std::size_t start = beginFrame(type, out);
    Encoder enc(std::move(out));
    record.encode(enc);
    out = enc.take();
    endFrame(spec, path, start, out);
}

/**
 * Read and validate a whole file: every frame is checksummed, and no
 * payload is copied. @throws FileError when it cannot be read, the
 * spec's error when it is corrupt (see the file comment).
 */
FramedLogScan scanFramedLog(const FramedLogSpec &spec,
                            const std::string &path);

/**
 * Append side: append() is the one way bytes reach a framed log. It
 * writes frames without an fsync; sync() makes them durable.
 */
class FramedLogWriter
{
  public:
    /**
     * Mode Truncate starts a fresh file with its header; Append cuts an
     * existing one back to `offset` (recovery drops the torn tail).
     * Either way the file is fsynced before return.
     */
    FramedLogWriter(const FramedLogSpec &spec, const std::string &path,
                    std::uint64_t digest, DurableFile::Mode mode,
                    std::uint64_t offset = 0);

    /** Write bytes that hold whole frames encoded for this log
     *  (encodeFrame, encodeFrameInto), in one write. Evaluates no crash
     *  point. */
    void append(std::string_view frames) { file_.append(frames); }

    /** Die mid-append at crash point `point`: write the first half of
     *  `frame` and fsync, which is what a crash between two write()
     *  calls leaves behind. */
    [[noreturn]] void tear(std::string_view frame, const char *point);

    void sync() { file_.sync(); }
    std::uint64_t offset() const { return file_.offset(); }
    std::uint64_t syncedOffset() const { return file_.syncedOffset(); }
    const std::string &path() const { return file_.path(); }

  private:
    DurableFile file_;
};

} // namespace qismet

#endif // QISMET_PERSIST_FRAMED_LOG_HPP
