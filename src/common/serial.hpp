/**
 * @file
 * Minimal binary serializer for checkpoint payloads.
 *
 * All integers are little-endian fixed-width; doubles are encoded as
 * the little-endian image of their IEEE-754 bit pattern, so a value
 * round-trips *bit-exactly* — the property the crash-resume contract
 * rests on. The format carries no type tags: encoder and decoder must
 * agree on the field sequence, which is versioned at the container
 * level (journal/snapshot headers).
 *
 * Decoder fails closed: any read past the end of the buffer, and any
 * length prefix larger than the bytes that remain, throws SerialError
 * instead of returning garbage.
 */

#ifndef QISMET_COMMON_SERIAL_HPP
#define QISMET_COMMON_SERIAL_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qismet {

/** Raised on any malformed or truncated decode. */
class SerialError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Appends little-endian fields to a growing byte buffer. */
class Encoder
{
  public:
    Encoder() = default;
    /** Append after `buffer`'s bytes, in its storage: moving a buffer
     *  in and take()-ing it back allocates nothing while it has room. */
    explicit Encoder(std::string buffer) : out_(std::move(buffer)) {}

    void writeU8(std::uint8_t value);
    void writeU32(std::uint32_t value);
    void writeU64(std::uint64_t value);
    void writeI64(std::int64_t value);
    void writeF64(double value);
    void writeBool(bool value);
    /** u64 count followed by the elements. */
    void writeVecF64(const std::vector<double> &values);
    /** u64 length followed by the raw bytes. */
    void writeString(std::string_view value);

    const std::string &bytes() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/**
 * A decoded integer as an enum whose enumerators run from 0 to `last`.
 * @throws SerialError naming `field` and the value when it is past
 * `last`: an out-of-range value is corruption, never a state to cast
 * into.
 */
template <typename Enum>
Enum
checkedEnum(const char *field, std::uint64_t value, Enum last)
{
    if (value > static_cast<std::uint64_t>(last))
        throw SerialError(std::string(field) + " " +
                          std::to_string(value) + " is out of range (0.." +
                          std::to_string(static_cast<std::uint64_t>(last)) +
                          ")");
    return static_cast<Enum>(value);
}

/**
 * A decoded integer narrowed to `To`, checked against [lo, hi] (by
 * default the whole range of `To`): a value outside it is corruption,
 * never a value to wrap into range.
 * @throws SerialError naming `field`, the value and the range.
 */
template <typename To, typename From>
To
checkedInt(const char *field, From value,
           To lo = std::numeric_limits<To>::min(),
           To hi = std::numeric_limits<To>::max())
{
    if (std::cmp_less(value, lo) || std::cmp_greater(value, hi))
        throw SerialError(std::string(field) + " " + std::to_string(value) +
                          " is out of range (" + std::to_string(lo) + ".." +
                          std::to_string(hi) + ")");
    return static_cast<To>(value);
}

/** Reads fields in the order the Encoder wrote them. */
class Decoder
{
  public:
    explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t readU8();
    std::uint32_t readU32();
    std::uint64_t readU64();
    std::int64_t readI64();
    double readF64();
    bool readBool();
    std::vector<double> readVecF64();
    std::string readString();

    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    /** @throws SerialError when fewer than `n` bytes remain. */
    const unsigned char *need(std::size_t n);

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace qismet

#endif // QISMET_COMMON_SERIAL_HPP
