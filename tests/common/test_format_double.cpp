/** @file Tests for formatDouble, the refusal messages' number format. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "common/format_double.hpp"

namespace qismet {
namespace {

TEST(FormatDouble, PrintsTheShortestFormThatReadsBack)
{
    EXPECT_EQ(formatDouble(-1e-9), "-1e-09");
    EXPECT_EQ(formatDouble(0.25), "0.25");
    EXPECT_EQ(formatDouble(1.5), "1.5");
    EXPECT_EQ(formatDouble(-0.0), "-0");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()),
              "-inf");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::quiet_NaN()), "nan");
    for (const double v : {0.1, 1.0 / 3.0, -2.2250738585072014e-308,
                           5e-324, 1.7976931348623157e308}) {
        const std::string text = formatDouble(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
}

} // namespace
} // namespace qismet
