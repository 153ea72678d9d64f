/**
 * @file
 * Table-driven tests of the two runtime-knob parsers: parseThreadCount
 * (QISMET_THREADS and every `--threads` flag) and parseSimdSwitch
 * (QISMET_SIMD). Each accepts a short, exact vocabulary and rejects
 * everything else with std::invalid_argument naming the knob and the
 * value, so a typo is an error instead of a silently different setting.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace qismet {
namespace {

/** Assert `parse` throws std::invalid_argument quoting name and value. */
template <typename Parse>
void
expectRejected(Parse parse, const std::string &name, const std::string &value)
{
    try {
        parse();
        ADD_FAILURE() << name << " accepted '" << value << "'";
    } catch (const std::invalid_argument &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
}

struct ThreadCountCase
{
    const char *value;
    std::optional<std::size_t> want; ///< nullopt: must be rejected.
};

TEST(KnobParse, ThreadCountTakesDigitsOnly)
{
    const ThreadCountCase cases[] = {
        {"0", 0},    {"1", 1},     {"4", 4},      {"64", 64},
        {"007", 7},  {"", {}},     {"abc", {}},   {"-2", {}},
        {"-1", {}},  {"4x", {}},   {"x4", {}},    {" 4", {}},
        {"4 ", {}},  {"+4", {}},   {"1.5", {}},   {"0x10", {}},
        {"18446744073709551616", {}}, // one past SIZE_MAX
    };
    for (const ThreadCountCase &c : cases) {
        if (c.want) {
            EXPECT_EQ(parseThreadCount("--threads", c.value), *c.want)
                << "'" << c.value << "'";
        } else {
            expectRejected(
                [&] { parseThreadCount("QISMET_THREADS", c.value); },
                "QISMET_THREADS", c.value);
        }
    }
}

struct SimdSwitchCase
{
    const char *value;
    std::optional<bool> want; ///< nullopt: must be rejected.
};

TEST(KnobParse, SimdSwitchTakesOnOffOneZero)
{
    const SimdSwitchCase cases[] = {
        {"on", true},   {"1", true},     {"off", false}, {"0", false},
        {"", {}},       {"OFF", {}},     {"On", {}},     {"false", {}},
        {"true", {}},   {"yes", {}},     {"no", {}},     {"2", {}},
        {"01", {}},     {"off ", {}},    {" on", {}},    {"avx2", {}},
    };
    for (const SimdSwitchCase &c : cases) {
        if (c.want) {
            EXPECT_EQ(parseSimdSwitch("QISMET_SIMD", c.value), *c.want)
                << "'" << c.value << "'";
        } else {
            expectRejected(
                [&] { parseSimdSwitch("QISMET_SIMD", c.value); },
                "QISMET_SIMD", c.value);
        }
    }
}

} // namespace
} // namespace qismet
