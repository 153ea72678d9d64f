/**
 * @file
 * formatDouble: a floating-point value as the shortest decimal that
 * reads back as the same double (std::to_chars), for refusal messages.
 * std::to_string prints six fixed decimals, so it shows -1e-9 as
 * "-0.000000"; formatDouble shows "-1e-09".
 */

#ifndef QISMET_COMMON_FORMAT_DOUBLE_HPP
#define QISMET_COMMON_FORMAT_DOUBLE_HPP

#include <charconv>
#include <string>

namespace qismet {

/** Shortest round-trip form of `value`: "-1e-09", "0.25", "nan", "-inf". */
inline std::string
formatDouble(double value)
{
    char buf[32]; // the longest shortest form of a double is 24 chars
    const std::to_chars_result end =
        std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, end.ptr);
}

} // namespace qismet

#endif // QISMET_COMMON_FORMAT_DOUBLE_HPP
